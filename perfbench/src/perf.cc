#include "perf.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/checkpoint_store.hh"

namespace perf
{

namespace fs = std::filesystem;

uint64_t
SpanLog::begin(const std::string &name, uint64_t parent, uint64_t op)
{
    if (!on)
        return 0;
    const int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin)
            .count();
    std::lock_guard<std::mutex> lk(mtx);
    const auto [it, inserted] = threads.try_emplace(
        std::this_thread::get_id(), unsigned(threads.size()));
    Span s;
    s.id = all.size() + 1;
    s.parent = parent;
    s.op = op;
    s.name = name;
    s.startNs = now;
    s.thread = it->second;
    all.push_back(std::move(s));
    return all.back().id;
}

void
SpanLog::end(uint64_t id)
{
    if (id == 0)
        return;
    const int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin)
            .count();
    std::lock_guard<std::mutex> lk(mtx);
    all.at(id - 1).endNs = now;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lk(mtx);
    return all;
}

std::vector<Span>
named(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<Span> out;
    for (const Span &s : spans) {
        if (s.name == name)
            out.push_back(s);
    }
    return out;
}

std::vector<double>
durationsMs(const std::vector<Span> &spans)
{
    std::vector<double> out;
    out.reserve(spans.size());
    for (const Span &s : spans)
        out.push_back(double(s.endNs - s.startNs) / 1e6);
    return out;
}

double
totalSeconds(const std::vector<Span> &spans)
{
    double sum = 0.0;
    for (const Span &s : spans)
        sum += double(s.endNs - s.startNs) / 1e9;
    return sum;
}

double
meanMs(const std::vector<Span> &spans)
{
    return spans.empty() ? 0.0 : totalSeconds(spans) * 1e3 / spans.size();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

void
printSelfTimeSummary(const std::vector<Span> &spans, double wall_s)
{
    // Children per parent, so each span's self time is its duration
    // minus the union of its children's intervals (children of one
    // parent overlap when they ran on different workers).
    std::map<uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans)
        children[s.parent].push_back(&s);

    struct Row
    {
        uint64_t calls = 0;
        double totalS = 0.0;
        double selfS = 0.0;
    };
    std::map<std::string, Row> rows;
    for (const Span &s : spans) {
        std::vector<std::pair<int64_t, int64_t>> iv;
        for (const Span *c : children[s.id])
            iv.emplace_back(std::max(c->startNs, s.startNs),
                            std::min(c->endNs, s.endNs));
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, curLo = 0, curHi = -1;
        for (const auto &[lo, hi] : iv) {
            if (lo > curHi) {
                if (curHi > curLo)
                    covered += curHi - curLo;
                curLo = lo;
                curHi = hi;
            } else {
                curHi = std::max(curHi, hi);
            }
        }
        if (curHi > curLo)
            covered += curHi - curLo;
        Row &r = rows[s.name];
        ++r.calls;
        r.totalS += double(s.endNs - s.startNs) / 1e9;
        r.selfS += double(s.endNs - s.startNs - covered) / 1e9;
    }

    std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto &a, const auto &b) {
        return a.second.selfS > b.second.selfS;
    });
    std::printf("self-time summary (host time; self = span minus its "
                "children; %.3f s traced wall):\n",
                wall_s);
    std::printf("  %-40s %8s %11s %11s %7s\n", "span", "calls", "total s",
                "self s", "self %");
    double selfSum = 0.0;
    for (const auto &[name, r] : sorted)
        selfSum += r.selfS;
    for (const auto &[name, r] : sorted) {
        std::printf("  %-40s %8lu %11.4f %11.4f %6.1f%%\n", name.c_str(),
                    (unsigned long)r.calls, r.totalS, r.selfS,
                    selfSum > 0 ? 100.0 * r.selfS / selfSum : 0.0);
    }
}

bool
writeSpansJson(const std::vector<Span> &spans, const std::string &path,
               const std::string &workload, uint64_t seed)
{
    std::ofstream os(path);
    if (!os)
        return false;
    // Span names are fixed identifiers of this benchmark (no quotes
    // or backslashes), so they are written without escaping.
    os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
       << ", \"unit\": \"ns\", \"spans\": [";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"id\": " << s.id
           << ", \"parent\": " << s.parent << ", \"op\": " << s.op
           << ", \"name\": \"" << s.name << "\", \"start\": " << s.startNs
           << ", \"end\": " << s.endNs << ", \"thread\": " << s.thread
           << "}";
    }
    os << "\n]}\n";
    return bool(os);
}

void
Outcome::violation(const std::string &what)
{
    violations.push_back(what);
    ++failed;
}

std::string
freshDir(const std::string &root, const std::string &tag)
{
    const fs::path dir = fs::path(root) / tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

void
resetCheckpointStore(const std::string &dir)
{
    svb::CheckpointStore::global().resetForTest(
        (fs::path(dir) / "ckpts").string());
}

size_t
countCheckpoints(const std::string &dir)
{
    const fs::path ck = fs::path(dir) / "ckpts";
    if (!fs::exists(ck))
        return 0;
    size_t n = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(ck))
        n += e.path().extension() == ".ckpt";
    return n;
}

size_t
countLines(const std::string &path)
{
    std::ifstream is(path);
    size_t n = 0;
    for (std::string line; std::getline(is, line);)
        ++n;
    return n;
}

void
timedLoop(const Options &opt, SpanLog &log, unsigned min_reps,
          const std::function<double(SpanLog &, uint64_t)> &rep,
          Outcome &out)
{
    SpanLog off(false);
    const Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0;; ++i) {
        const bool traced = opt.trace && (i % 2 == 1);
        const double wall = rep(traced ? log : off, i);
        (traced ? out.tracedWallS : out.wallS).push_back(wall);
        const bool enough =
            out.wallS.size() >= min_reps &&
            (!opt.trace || out.tracedWallS.size() >= min_reps);
        if (enough && secondsSince(t0) >= opt.seconds)
            break;
    }
}

} // namespace perf
