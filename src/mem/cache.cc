#include "cache.hh"

#include "sim/logging.hh"

namespace svb
{

Cache::Cache(const CacheParams &params, MemLevel &next_level,
             StatGroup &stats)
    : p(params), next(next_level),
      numSets(params.sizeBytes / (params.lineSize * params.assoc)),
      statHits(stats.childGroup(p.name).addScalar("hits", "cache hits")),
      statMisses(
          stats.childGroup(p.name).addScalar("misses", "cache misses")),
      statEvictions(
          stats.childGroup(p.name).addScalar("evictions", "lines evicted")),
      statWritebacks(stats.childGroup(p.name).addScalar(
          "writebacks", "dirty lines written back")),
      statInvalidations(stats.childGroup(p.name).addScalar(
          "invalidations", "lines invalidated by snoops")),
      statPrefetches(stats.childGroup(p.name).addScalar(
          "prefetches", "next-line prefetch fills"))
{
    svb_assert(numSets > 0 && (numSets & (numSets - 1)) == 0,
               p.name, ": number of sets must be a power of two");
    lines.resize(numSets * p.assoc);
    StatGroup &g = stats.childGroup(p.name);
    g.addFormula("missRate", "misses / (hits+misses)", [this]() {
        uint64_t total = statHits.value() + statMisses.value();
        return total ? double(statMisses.value()) / double(total) : 0.0;
    });
}

size_t
Cache::setIndex(Addr line_addr) const
{
    return size_t(line_addr / p.lineSize) & (numSets - 1);
}

Cache::Line *
Cache::findLine(Addr line_addr)
{
    Line *base = &lines[setIndex(line_addr) * p.assoc];
    for (uint32_t w = 0; w < p.assoc; ++w) {
        if (base[w].valid && base[w].tag == line_addr)
            return &base[w];
    }
    return nullptr;
}

Cache::Line &
Cache::victimLine(Addr line_addr)
{
    Line *base = &lines[setIndex(line_addr) * p.assoc];
    Line *victim = base;
    for (uint32_t w = 0; w < p.assoc; ++w) {
        if (!base[w].valid)
            return base[w];
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    return *victim;
}

Cycles
Cache::access(Addr addr, bool is_write, Cycles now)
{
    const Addr la = lineAddr(addr);
    if (Line *line = findLine(la)) {
        ++statHits;
        line->lastUse = ++useCounter;
        line->dirty |= is_write;
        return p.hitLatency;
    }

    ++statMisses;
    Cycles latency = p.hitLatency;

    Line &victim = victimLine(la);
    if (victim.valid) {
        ++statEvictions;
        if (victim.dirty) {
            ++statWritebacks;
            // Writeback happens off the critical path; charge the next
            // level's occupancy but not this access's latency.
            next.access(victim.tag, true, now + latency);
        }
    }
    latency += next.access(la, false, now + latency);

    victim.tag = la;
    victim.valid = true;
    victim.dirty = is_write;
    victim.lastUse = ++useCounter;

    if (p.nextLinePrefetch) {
        const Addr next_line = la + p.lineSize;
        if (findLine(next_line) == nullptr) {
            ++statPrefetches;
            Line &pf_victim = victimLine(next_line);
            if (pf_victim.valid) {
                ++statEvictions;
                if (pf_victim.dirty) {
                    ++statWritebacks;
                    next.access(pf_victim.tag, true, now + latency);
                }
            }
            next.access(next_line, false, now + latency);
            pf_victim.tag = next_line;
            pf_victim.valid = true;
            pf_victim.dirty = false;
            // Inserted below MRU so useless prefetches evict first.
            pf_victim.lastUse = useCounter;
        }
    }
    return latency;
}

void
Cache::warm(Addr addr, bool is_write)
{
    const Addr la = lineAddr(addr);
    if (Line *line = findLine(la)) {
        ++statHits;
        line->lastUse = ++useCounter;
        line->dirty |= is_write;
        return;
    }
    ++statMisses;
    Line &victim = victimLine(la);
    if (victim.valid) {
        ++statEvictions;
        if (victim.dirty) {
            ++statWritebacks;
            next.warm(victim.tag, true);
        }
    }
    next.warm(la, false);
    victim.tag = la;
    victim.valid = true;
    victim.dirty = is_write;
    victim.lastUse = ++useCounter;
}

bool
Cache::invalidate(Addr line_addr)
{
    if (Line *line = findLine(lineAddr(line_addr))) {
        line->valid = false;
        line->dirty = false;
        ++statInvalidations;
        return true;
    }
    return false;
}

void
Cache::flushAll()
{
    for (auto &line : lines)
        line = Line{};
}

bool
Cache::contains(Addr line_addr) const
{
    return const_cast<Cache *>(this)->findLine(
               line_addr & ~Addr(p.lineSize - 1)) != nullptr;
}

std::vector<Cache::LineUse>
Cache::usedSince(uint64_t stamp) const
{
    std::vector<LineUse> out;
    for (size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].valid && lines[i].lastUse > stamp)
            out.push_back({uint32_t(i), lines[i].tag, lines[i].lastUse});
    }
    return out;
}

void
Cache::creditHitRounds(const std::vector<LineUse> &used, uint64_t accesses,
                       uint64_t rounds)
{
    const uint64_t n = accesses * rounds;
    for (const LineUse &u : used) {
        Line &line = lines[u.slot];
        svb_assert(line.valid && line.tag == u.tag,
                   p.name, ": credited line is no longer resident");
        line.lastUse += n;
    }
    useCounter += n;
    statHits += n;
}

void
Cache::serializeState(const std::string &prefix, Checkpoint &cp) const
{
    cp.setScalar(prefix + "lines", lines.size());
    cp.setScalar(prefix + "lineSize", p.lineSize);
    cp.setScalar(prefix + "assoc", p.assoc);
    cp.setScalar(prefix + "useCounter", useCounter);
    BlobWriter w;
    for (const Line &line : lines) {
        w.putU64(line.tag);
        w.putU64(line.lastUse);
        w.putU8(uint8_t((line.valid ? 1 : 0) | (line.dirty ? 2 : 0)));
    }
    cp.setBlob(prefix + "state", w.take());
}

void
Cache::unserializeState(const std::string &prefix, const Checkpoint &cp)
{
    svb_assert(cp.getScalar(prefix + "lines") == lines.size() &&
                   cp.getScalar(prefix + "lineSize") == p.lineSize &&
                   cp.getScalar(prefix + "assoc") == p.assoc,
               "checkpoint cache geometry mismatch (", p.name, ")");
    useCounter = cp.getScalar(prefix + "useCounter");
    BlobReader r(cp.getBlob(prefix + "state"));
    for (Line &line : lines) {
        line.tag = r.getU64();
        line.lastUse = r.getU64();
        const uint8_t flags = r.getU8();
        line.valid = (flags & 1) != 0;
        line.dirty = (flags & 2) != 0;
    }
    svb_assert(r.done(), "checkpoint cache blob has trailing bytes");
}

} // namespace svb
