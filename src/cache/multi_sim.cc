#include "cache/multi_sim.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"
#include "tracing/tracing.hh"

namespace texcache {

FaCapacitySweep::FaCapacitySweep(unsigned line_bytes,
                                 std::vector<uint64_t> sizes)
    : sizes_(std::move(sizes)), prof_(line_bytes)
{
    fatal_if(sizes_.empty(), "capacity sweep with no sizes");
}

std::vector<CacheStats>
FaCapacitySweep::stats() const
{
    std::vector<CacheStats> out;
    out.reserve(sizes_.size());
    for (uint64_t size : sizes_) {
        CacheStats s;
        s.accesses = prof_.accesses();
        s.misses = prof_.misses(size);
        s.coldMisses = prof_.coldMisses();
        out.push_back(s);
    }
    return out;
}

LineGroups::LineGroups(const std::vector<CacheConfig> &configs)
{
    groupOf_.reserve(configs.size());
    for (const CacheConfig &c : configs) {
        unsigned shift = log2Exact(c.lineBytes);
        uint64_t mask = std::min(c.numSets(), kMaxKeys) - 1;
        auto it = std::find_if(
            groups_.begin(), groups_.end(),
            [&](const Group &g) { return g.lineShift == shift; });
        if (it == groups_.end()) {
            groups_.push_back({shift, mask});
            it = groups_.end() - 1;
        }
        // Set counts are powers of two, so the smallest mask's bits
        // are low bits of every member's set index.
        it->mask = std::min(it->mask, mask);
        groupOf_.push_back(static_cast<unsigned>(it - groups_.begin()));
    }
}

SetMruFilter::SetMruFilter(const LineGroups::Group &group)
    : lineShift_(group.lineShift), mask_(group.mask),
      last_(group.mask + 1, ~0ULL)
{}

void
SetMruFilter::reset()
{
    std::fill(last_.begin(), last_.end(), ~0ULL);
    dropped_ = 0;
}

GroupSim::GroupSim(const std::vector<CacheConfig> &configs)
    : groups_(configs), kept_(kKeptBlock)
{
    fatal_if(configs.empty(), "group simulation with no configs");
    for (unsigned g = 0; g < groups_.size(); ++g)
        filters_.emplace_back(groups_[g]);
    sims_.reserve(configs.size());
    for (const CacheConfig &c : configs) {
        sims_.emplace_back(c);
        // Members of one family replay interleaved; their per-access
        // trace events would be nonsense side by side.
        sims_.back().setTraceTag(tracing::kTagSilent);
    }
}

void
GroupSim::accessRange(const Addr *a, size_t n)
{
    for (size_t b = 0; b < n; b += kKeptBlock) {
        size_t len = std::min(kKeptBlock, n - b);
        for (unsigned g = 0; g < groups_.size(); ++g) {
            Addr *kept = kept_.data();
            size_t k = 0;
            filters_[g].forEachKept(
                a + b, len, [&](Addr x, uint64_t) { kept[k++] = x; });
            // Iterate sims outermost: each simulator's tables stay hot
            // in cache while it consumes the block.
            for (size_t m = 0; m < sims_.size(); ++m)
                if (groups_.groupOf(m) == g)
                    for (size_t i = 0; i < k; ++i)
                        sims_[m].access(kept[i]);
        }
    }
}

std::vector<CacheStats>
GroupSim::stats() const
{
    std::vector<CacheStats> out;
    out.reserve(sims_.size());
    for (size_t m = 0; m < sims_.size(); ++m) {
        out.push_back(sims_[m].stats());
        // Every dropped access hit in every member of its group.
        out.back().accesses += filters_[groups_.groupOf(m)].dropped();
    }
    return out;
}

} // namespace texcache
