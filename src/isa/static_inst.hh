/**
 * @file
 * Decoded macro instructions.
 */

#ifndef SVB_ISA_STATIC_INST_HH
#define SVB_ISA_STATIC_INST_HH

#include <array>
#include <cstdint>
#include <string>

#include "microop.hh"
#include "sim/types.hh"

namespace svb
{

/** Maximum micro-ops per macro instruction (CX86 op-store / call). */
constexpr unsigned maxUopsPerInst = 4;

/**
 * One decoded macro instruction: its micro-op expansion plus the
 * summary flags the front-end (branch prediction) needs.
 */
struct StaticInst
{
    std::array<MicroOp, maxUopsPerInst> uops{};
    uint8_t numUops = 0;
    uint8_t length = 0;   ///< encoded length in bytes

    bool valid = false;   ///< decoded successfully
    bool isControl = false;
    bool isCondCtrl = false;
    bool isCall = false;
    bool isReturn = false;
    bool isDirectCtrl = false;
    bool isSyscall = false;
    bool isHalt = false;

    /** @name Rename needs of the expansion, summed by addUop so the
     *  O3 rename stage checks its resources in O(1). They sit in the
     *  padding before directOffset, so decode-cache entries keep
     *  their size. */
    ///@{
    uint8_t iqUops = 0;    ///< uops that take an issue-queue slot
    uint8_t dstUops = 0;   ///< uops that write a register
    uint8_t loadUops = 0;  ///< load-queue entries
    uint8_t storeUops = 0; ///< store-queue entries
    ///@}

    /** Target of a direct control transfer, pc-relative offset. */
    int64_t directOffset = 0;

    std::string mnemonic; ///< disassembly text for debugging

    /** Append a micro-op to the expansion. */
    void
    addUop(const MicroOp &uop)
    {
        uops.at(numUops++) = uop;
        iqUops += !uop.skipsIssue();
        dstUops += uop.rd != invalidReg;
        loadUops += uop.isLoad();
        storeUops += uop.isStore();
    }

    /** @return absolute direct target given the instruction's pc. */
    Addr directTarget(Addr pc) const { return pc + uint64_t(directOffset); }
};

} // namespace svb

#endif // SVB_ISA_STATIC_INST_HH
