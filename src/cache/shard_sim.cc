#include "cache/shard_sim.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"
#include "tracing/tracing.hh"

namespace texcache {

// ---- Set partitioning ----------------------------------------------

SetPartition::SetPartition(const std::vector<CacheConfig> &configs,
                           unsigned shards)
    : shards_(shards)
{
    fatal_if(configs.empty(), "sharded simulation with no configs");
    fatal_if(!shards, "set partition into zero shards");
    groupOf_.reserve(configs.size());
    for (const CacheConfig &c : configs) {
        unsigned shift = log2Exact(c.lineBytes);
        uint64_t mask = std::min(c.numSets(), kOwnerTable) - 1;
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
    uint64_t table = 1;
    for (const Group &g : groups_)
        table = std::max(table, g.mask + 1);
    owner_.resize(table);
    for (uint64_t k = 0; k < table; ++k)
        owner_[k] = static_cast<uint32_t>(k % shards);
}

void
SetBuckets::Bucket::reserveMore(size_t n)
{
    if (size + n <= cap)
        return;
    size_t grown = std::max(size + n, cap * 2);
    std::unique_ptr<Addr[]> next(new Addr[grown]);
    std::copy(buf.get(), buf.get() + size, next.get());
    buf = std::move(next);
    cap = grown;
}

SetBuckets::SetBuckets(const SetPartition &part)
    : part_(&part), buckets_(size_t(part.groups()) * part.shards()),
      cursor_(part.shards())
{}

void
SetBuckets::clear()
{
    for (Bucket &b : buckets_)
        b.size = 0;
}

void
SetBuckets::scatter(const Addr *a, size_t n)
{
    const unsigned shards = part_->shards();
    const uint32_t *owner = part_->owner_.data();
    Addr **cursor = cursor_.data();
    for (unsigned g = 0; g < part_->groups(); ++g) {
        Bucket *b = &buckets_[size_t(g) * shards];
        for (unsigned s = 0; s < shards; ++s) {
            b[s].reserveMore(n);
            cursor[s] = b[s].buf.get() + b[s].size;
        }
        const unsigned shift = part_->groups_[g].lineShift;
        const uint64_t mask = part_->groups_[g].mask;
        for (size_t i = 0; i < n; ++i)
            *cursor[owner[(a[i] >> shift) & mask]]++ = a[i];
        for (unsigned s = 0; s < shards; ++s)
            b[s].size = static_cast<size_t>(cursor[s] - b[s].buf.get());
    }
}

SetShardSim::SetShardSim(const std::vector<CacheConfig> &configs,
                         unsigned shard, const SetPartition &part)
    : shard_(shard), shards_(part.shards())
{
    fatal_if(configs.empty(), "sharded simulation with no configs");
    fatal_if(shard >= shards_, "shard ", shard, " of ", shards_);
    panic_if(part.configs() != configs.size(), "partition of ",
             part.configs(), " configs for a shard of ", configs.size());
    members_.reserve(configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        Member m{CacheSim(configs[i]), part.groupOf(i)};
        // Shard replays run many sims of the same organization; the
        // per-access trace stream would interleave nonsensically.
        m.sim.setTraceTag(tracing::kTagSilent);
        members_.push_back(std::move(m));
    }
}

void
SetShardSim::consume(size_t m, const SetBuckets *slices, size_t count)
{
    Member &mem = members_[m];
    for (size_t k = 0; k < count; ++k) {
        const Addr *a = slices[k].data(mem.group, shard_);
        size_t n = slices[k].size(mem.group, shard_);
        for (size_t i = 0; i < n; ++i)
            mem.sim.access(a[i]);
    }
}

void
SetShardSim::accessRange(const Addr *a, size_t n)
{
    panic_if(shards_ != 1, "unscattered access to shard ", shard_,
             " of ", shards_);
    for (Member &m : members_)
        for (size_t i = 0; i < n; ++i)
            m.sim.access(a[i]);
}

std::vector<CacheStats>
SetShardSim::stats() const
{
    std::vector<CacheStats> out;
    out.reserve(members_.size());
    for (const Member &m : members_)
        out.push_back(m.sim.stats());
    return out;
}

std::vector<CacheStats>
mergeShardStats(const std::vector<std::vector<CacheStats>> &per_shard)
{
    fatal_if(per_shard.empty(), "merging zero shards");
    std::vector<CacheStats> out = per_shard[0];
    for (size_t s = 1; s < per_shard.size(); ++s) {
        panic_if(per_shard[s].size() != out.size(),
                 "shard ", s, " has ", per_shard[s].size(),
                 " configs, shard 0 has ", out.size());
        for (size_t c = 0; c < out.size(); ++c) {
            out[c].accesses += per_shard[s][c].accesses;
            out[c].misses += per_shard[s][c].misses;
            out[c].coldMisses += per_shard[s][c].coldMisses;
            out[c].evictions += per_shard[s][c].evictions;
        }
    }
    return out;
}

// ---- Time partitioning ---------------------------------------------

StackSegmentPass::StackSegmentPass(unsigned line_bytes)
    : prof_(line_bytes)
{
    prof_.setFirstTouchLog(&firstTouch_);
}

StackShardPass
StackSegmentPass::finish()
{
    prof_.setFirstTouchLog(nullptr);
    StackShardPass pass;
    pass.accesses = prof_.accesses();
    pass.hist = prof_.histogram();
    pass.firstTouch = std::move(firstTouch_);
    pass.finalOrder = prof_.stackOrder();
    return pass;
}

// ---- Global LRU-stack oracle ---------------------------------------

void
LruStackOracle::fenwickAdd(size_t pos, int delta)
{
    for (size_t i = pos + 1; i <= tree_.size(); i += i & (~i + 1))
        tree_[i - 1] +=
            static_cast<uint64_t>(static_cast<int64_t>(delta));
}

uint64_t
LruStackOracle::fenwickSuffix(size_t pos) const
{
    uint64_t prefix = 0;
    for (size_t i = pos + 1; i > 0; i -= i & (~i + 1))
        prefix += tree_[i - 1];
    // One live timestamp per line, so total live = map size (queried
    // before any insert of the current line).
    return lastTime_.size() - prefix;
}

void
LruStackOracle::compact()
{
    std::vector<std::pair<uint64_t, uint64_t>> live; // (time, line)
    live.reserve(lastTime_.size());
    lastTime_.forEach(
        [&](uint64_t line, uint64_t t) { live.emplace_back(t, line); });
    std::sort(live.begin(), live.end());

    present_.assign(live.size() * 2 + 64, false);
    tree_.assign(present_.size(), 0);
    now_ = 0;
    for (const auto &[t, line] : live) {
        *lastTime_.find(line) = now_;
        present_[now_] = true;
        fenwickAdd(now_, 1);
        ++now_;
    }
}

void
LruStackOracle::ensureRoom()
{
    if (now_ < tree_.size())
        return;
    if (lastTime_.size() * 2 + 64 < tree_.size()) {
        compact();
        return;
    }
    size_t new_size = tree_.size() ? tree_.size() * 2 : 1024;
    std::vector<bool> old_present = present_;
    present_.assign(new_size, false);
    tree_.assign(new_size, 0);
    for (size_t i = 0; i < old_present.size(); ++i) {
        if (old_present[i]) {
            present_[i] = true;
            fenwickAdd(i, 1);
        }
    }
}

void
LruStackOracle::moveToTop(uint64_t *slot)
{
    present_[*slot] = false;
    fenwickAdd(*slot, -1);
    *slot = now_;
    present_[now_] = true;
    fenwickAdd(now_, 1);
    ++now_;
}

uint64_t
LruStackOracle::touch(uint64_t line)
{
    ensureRoom();
    uint64_t *slot = lastTime_.find(line);
    if (!slot) {
        lastTime_.insert(line, now_);
        present_[now_] = true;
        fenwickAdd(now_, 1);
        ++now_;
        return 0;
    }
    uint64_t dist = fenwickSuffix(*slot) + 1;
    moveToTop(slot);
    return dist;
}

void
LruStackOracle::promote(uint64_t line)
{
    ensureRoom();
    uint64_t *slot = lastTime_.find(line);
    panic_if(!slot, "promote of line ", line,
             " absent from the oracle stack");
    moveToTop(slot);
}

// ---- Merge ---------------------------------------------------------

ShardedStackProfile
mergeStackShards(const std::vector<StackShardPass> &passes,
                 unsigned line_bytes)
{
    ShardedStackProfile out;
    out.lineShift = log2Exact(line_bytes);

    LruStackOracle oracle;
    for (const StackShardPass &pass : passes) {
        out.accesses += pass.accesses;

        // Locally-exact distances merge as-is.
        if (pass.hist.size() > out.hist.size())
            out.hist.resize(pass.hist.size(), 0);
        for (size_t d = 0; d < pass.hist.size(); ++d)
            out.hist[d] += pass.hist[d];

        // Resolve the segment's locally-cold accesses. Touching in
        // first-touch order keeps every line the segment saw before
        // access k above the stack position of line k's previous
        // (earlier-segment) touch, so the oracle distance is the exact
        // global one.
        for (uint64_t line : pass.firstTouch) {
            uint64_t d = oracle.touch(line);
            if (!d) {
                ++out.cold;
                continue;
            }
            if (d >= out.hist.size())
                out.hist.resize(d + 1, 0);
            ++out.hist[d];
        }

        // Restore the true global stack: the segment's lines belong at
        // the top, ordered by their *last* local access, not their
        // first touch.
        for (uint64_t line : pass.finalOrder)
            oracle.promote(line);
    }
    return out;
}

} // namespace texcache
