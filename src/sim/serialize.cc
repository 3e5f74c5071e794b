#include "serialize.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <unistd.h>

#include "logging.hh"

namespace svb
{

namespace
{

constexpr char ckptMagic[8] = {'S', 'V', 'B', 'C', 'K', 'P', 'T', '1'};

void
writeU64(std::ostream &os, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        os.put(char((v >> (8 * i)) & 0xff));
}

void
writeStr(std::ostream &os, const std::string &s)
{
    writeU64(os, s.size());
    os.write(s.data(), std::streamsize(s.size()));
}

/**
 * Bounds-checked cursor over the fully-read file contents. Every
 * length field is validated against the bytes actually remaining, so
 * a corrupt length can never trigger a huge allocation or a read past
 * the end of the buffer.
 */
struct FileParser
{
    const std::vector<uint8_t> &data;
    size_t pos = 0;
    std::string error;      ///< first failure, empty while good
    std::string context;    ///< key currently being read, for messages

    explicit FileParser(const std::vector<uint8_t> &data) : data(data) {}

    bool failed() const { return !error.empty(); }
    size_t remaining() const { return data.size() - pos; }

    void
    fail(const std::string &what)
    {
        if (!error.empty())
            return;
        error = what;
        if (!context.empty())
            error += " (while reading '" + context + "')";
        error += " at offset " + std::to_string(pos);
    }

    uint64_t
    getU64()
    {
        if (failed())
            return 0;
        if (remaining() < 8) {
            fail("truncated checkpoint: expected 8-byte value");
            return 0;
        }
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= uint64_t(data[pos + size_t(i)]) << (8 * i);
        pos += 8;
        return v;
    }

    std::string
    getStr()
    {
        const uint64_t n = getU64();
        if (failed())
            return {};
        if (n > remaining()) {
            fail("corrupt checkpoint: string length " + std::to_string(n) +
                 " exceeds " + std::to_string(remaining()) +
                 " remaining bytes");
            return {};
        }
        std::string s(reinterpret_cast<const char *>(data.data() + pos),
                      size_t(n));
        pos += size_t(n);
        return s;
    }

    std::vector<uint8_t>
    getBlob()
    {
        const uint64_t n = getU64();
        if (failed())
            return {};
        if (n > remaining()) {
            fail("corrupt checkpoint: blob length " + std::to_string(n) +
                 " exceeds " + std::to_string(remaining()) +
                 " remaining bytes");
            return {};
        }
        std::vector<uint8_t> out(data.begin() + std::ptrdiff_t(pos),
                                 data.begin() + std::ptrdiff_t(pos + n));
        pos += size_t(n);
        return out;
    }
};

} // namespace

void
Checkpoint::setScalar(const std::string &key, uint64_t value)
{
    scalars[key] = value;
}

void
Checkpoint::setString(const std::string &key, const std::string &value)
{
    strings[key] = value;
}

void
Checkpoint::setBlob(const std::string &key, std::vector<uint8_t> data)
{
    blobs[key] = std::move(data);
}

uint64_t
Checkpoint::getScalar(const std::string &key) const
{
    auto it = scalars.find(key);
    if (it == scalars.end())
        svb_fatal("checkpoint missing scalar '", key, "'");
    return it->second;
}

const std::string &
Checkpoint::getString(const std::string &key) const
{
    auto it = strings.find(key);
    if (it == strings.end())
        svb_fatal("checkpoint missing string '", key, "'");
    return it->second;
}

const std::vector<uint8_t> &
Checkpoint::getBlob(const std::string &key) const
{
    auto it = blobs.find(key);
    if (it == blobs.end())
        svb_fatal("checkpoint missing blob '", key, "'");
    return it->second;
}

bool
Checkpoint::hasScalar(const std::string &key) const
{
    return scalars.count(key) != 0;
}

bool
Checkpoint::hasString(const std::string &key) const
{
    return strings.count(key) != 0;
}

bool
Checkpoint::hasBlob(const std::string &key) const
{
    return blobs.count(key) != 0;
}

void
Checkpoint::erasePrefix(const std::string &prefix)
{
    // std::map keys are ordered: every key with this prefix forms one
    // contiguous range starting at lower_bound(prefix).
    const auto erase_range = [&prefix](auto &m) {
        auto it = m.lower_bound(prefix);
        while (it != m.end() && it->first.compare(0, prefix.size(),
                                                  prefix) == 0) {
            it = m.erase(it);
        }
    };
    erase_range(scalars);
    erase_range(strings);
    erase_range(blobs);
}

namespace
{

template <typename Map>
std::string
firstMapDifference(const Map &a, const Map &b)
{
    auto ia = a.begin();
    auto ib = b.begin();
    for (; ia != a.end() && ib != b.end(); ++ia, ++ib) {
        if (ia->first != ib->first)
            return std::min(ia->first, ib->first);
        if (ia->second != ib->second)
            return ia->first;
    }
    if (ia != a.end())
        return ia->first;
    return ib != b.end() ? ib->first : std::string();
}

} // namespace

std::string
Checkpoint::firstDifference(const Checkpoint &other) const
{
    std::string key = firstMapDifference(scalars, other.scalars);
    if (key.empty())
        key = firstMapDifference(strings, other.strings);
    if (key.empty())
        key = firstMapDifference(blobs, other.blobs);
    return key;
}

void
Checkpoint::saveToFile(const std::string &path) const
{
    // Write-then-rename: readers either see the previous complete file
    // or the new complete file, never a half-written one. The
    // temporary sibling carries a per-process, per-call unique suffix:
    // with a fixed ".tmp" name, two concurrent writers of the same
    // path would interleave into one temporary file and a corrupt mix
    // could be renamed into place.
    static std::atomic<uint64_t> tmpCounter{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(uint64_t(::getpid())) + "." +
        std::to_string(tmpCounter.fetch_add(1, std::memory_order_relaxed));
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            svb_fatal("cannot open checkpoint file '", tmp,
                      "' for writing");
        os.write(ckptMagic, sizeof(ckptMagic));
        writeU64(os, scalars.size());
        for (const auto &[k, v] : scalars) {
            writeStr(os, k);
            writeU64(os, v);
        }
        writeU64(os, strings.size());
        for (const auto &[k, v] : strings) {
            writeStr(os, k);
            writeStr(os, v);
        }
        writeU64(os, blobs.size());
        for (const auto &[k, v] : blobs) {
            writeStr(os, k);
            writeU64(os, v.size());
            os.write(reinterpret_cast<const char *>(v.data()),
                     std::streamsize(v.size()));
        }
        os.flush();
        if (!os.good())
            svb_fatal("short write to checkpoint file '", tmp, "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        svb_fatal("cannot rename '", tmp, "' to '", path, "'");
}

Checkpoint
Checkpoint::loadFromFile(const std::string &path)
{
    std::string err;
    std::optional<Checkpoint> cp = tryLoadFromFile(path, &err);
    if (!cp)
        svb_fatal("loading checkpoint '", path, "': ", err);
    return std::move(*cp);
}

std::optional<Checkpoint>
Checkpoint::tryLoadFromFile(const std::string &path, std::string *err)
{
    auto failWith = [&](const std::string &message) {
        if (err != nullptr)
            *err = message;
        return std::nullopt;
    };

    std::ifstream is(path, std::ios::binary);
    if (!is)
        return failWith("cannot open file");
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                               std::istreambuf_iterator<char>());
    if (bytes.size() < sizeof(ckptMagic) ||
        !std::equal(ckptMagic, ckptMagic + sizeof(ckptMagic),
                    bytes.begin())) {
        return failWith("not an svbench checkpoint (bad magic/version)");
    }

    FileParser p(bytes);
    p.pos = sizeof(ckptMagic);
    Checkpoint cp;

    p.context = "scalar count";
    uint64_t n = p.getU64();
    for (uint64_t i = 0; i < n && !p.failed(); ++i) {
        p.context = "scalar key #" + std::to_string(i);
        std::string k = p.getStr();
        p.context = k;
        cp.scalars[k] = p.getU64();
    }
    p.context = "string count";
    n = p.getU64();
    for (uint64_t i = 0; i < n && !p.failed(); ++i) {
        p.context = "string key #" + std::to_string(i);
        std::string k = p.getStr();
        p.context = k;
        cp.strings[k] = p.getStr();
    }
    p.context = "blob count";
    n = p.getU64();
    for (uint64_t i = 0; i < n && !p.failed(); ++i) {
        p.context = "blob key #" + std::to_string(i);
        std::string k = p.getStr();
        p.context = k;
        cp.blobs[k] = p.getBlob();
    }
    if (p.failed())
        return failWith(p.error);
    if (p.remaining() != 0) {
        return failWith("corrupt checkpoint: " +
                        std::to_string(p.remaining()) +
                        " bytes of trailing garbage");
    }
    return cp;
}

uint8_t
BlobReader::getU8()
{
    svb_assert(pos < data.size(), "blob reader overrun");
    return data[pos++];
}

uint64_t
BlobReader::getU64()
{
    svb_assert(pos + 8 <= data.size(), "blob reader overrun");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t(data[pos + size_t(i)]) << (8 * i);
    pos += 8;
    return v;
}

} // namespace svb
