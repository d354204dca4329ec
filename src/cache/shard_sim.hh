/**
 * @file
 * Sharding one cache simulation across workers, bit-exactly.
 *
 * Two decompositions, matched to the two simulator families
 * (DESIGN.md section 16):
 *
 *  - Set partitioning (SetPartition, SetBuckets, SetShardSim), for
 *    set-associative caches. LRU within a set depends only on the
 *    relative order of that set's own accesses, and a line maps to
 *    exactly one set, so giving each shard an exclusive subset of sets
 *    and feeding it, in stream order, exactly the accesses to those
 *    sets yields per-shard statistics whose field-wise sum equals the
 *    serial run - including evictions and cold misses. The stream is
 *    decoded and mapped once: each time slice is passed through the
 *    set-MRU filter of multi_sim.hh and its kept addresses scattered
 *    into per-shard buckets (SetBuckets::scatter), and each shard
 *    consumes its buckets slice by slice, simulating every kept
 *    address once. The bucket key (SetPartition) is (line & mask) %
 *    shards, where mask keeps the low set-index bits shared by every
 *    member of one line size - the same key the filter's table uses;
 *    the key is thus a function of each member's set index, so every
 *    set has exactly one owner and scattering preserves each set's
 *    access order. A filtered access hits in every member without
 *    changing its state, so the filter may run per slice (its table
 *    reset at each slice start, which only keeps more) and its count
 *    is credited once, to shard 0, keeping the merge a plain sum.
 *
 *  - Time partitioning (StackSegmentPass + mergeStackShards), for the
 *    fully associative stack-distance profile, in the style of PARDA
 *    [Niu et al., IPDPS'12]. Each worker profiles one contiguous
 *    segment of the stream independently: distances of accesses whose
 *    previous touch lies inside the segment are already globally
 *    correct; the rest - each segment's locally-cold accesses, which
 *    are exactly its first touches in order - are resolved by a
 *    sequential reconciliation pass against a global LRU-stack oracle.
 *    Touching the first-touch log in order places every distinct line
 *    the segment saw earlier above the queried line, so the oracle
 *    distance equals |lines seen in earlier segments since the
 *    previous touch  UNION  lines seen locally before this access| + 1
 *    - the exact global stack distance. A final promote() fixup in the
 *    segment's last-access order (LRU first) restores the true global
 *    stack before the next segment merges. The merged histogram, cold
 *    count and access count are bucket-identical to a serial
 *    StackDistProfiler pass.
 *
 * Reconciliation cost is O(distinct lines per segment), not O(segment
 * accesses), so the serial fraction stays small for texture streams.
 */

#ifndef TEXCACHE_CACHE_SHARD_SIM_HH
#define TEXCACHE_CACHE_SHARD_SIM_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/multi_sim.hh"
#include "cache/stack_dist.hh"

namespace texcache {

/**
 * Which shard owns each set of a family of cache configurations.
 *
 * Members are grouped by line size (LineGroups). Within a group,
 * address a belongs to shard owner[(a >> lineShift) & mask], where
 * mask keeps the low set-index bits every member of the group shares
 * and owner[k] = k % shards, so the table turns the per-address modulo
 * into a load. The key is a function of each member's set index, so
 * every set of every member is owned by exactly one shard, for any
 * shard count. A member with fewer sets than shards narrows its whole
 * group to that many shards (the rest idle for that group); results
 * stay exact.
 */
class SetPartition
{
  public:
    SetPartition(const std::vector<CacheConfig> &configs,
                 unsigned shards);

    unsigned shards() const { return shards_; }

    /** Distinct line sizes among the configurations. */
    unsigned groups() const { return lines_.size(); }

    /** Configurations the partition was built from. */
    size_t configs() const { return lines_.configs(); }

    /** Line-size group of the constructor's @p i-th configuration. */
    unsigned groupOf(size_t i) const { return lines_.groupOf(i); }

    /** The shard owning @p a's set in every member of @p group. */
    unsigned
    shardOf(unsigned group, Addr a) const
    {
        const LineGroups::Group &g = lines_[group];
        return owner_[(a >> g.lineShift) & g.mask];
    }

  private:
    friend class SetBuckets;

    LineGroups lines_;
    std::vector<uint32_t> owner_;
    unsigned shards_;
};

/**
 * One time slice of the stream, filtered and scattered: each line-size
 * group's set-MRU filter (multi_sim.hh) drops the slice's guaranteed
 * hits, and bucket (group, shard) holds, in stream order, the kept
 * addresses whose set belongs to the shard in that group's members.
 * A slice is a discontinuous piece of the stream, so clear() resets
 * the filters along with the buckets, and each slice's dropped count
 * is credited once per group (SetShardSim::consume credits it to
 * shard 0). Buffers are kept across clear(), so a replay that reuses
 * its slices allocates only while warming up.
 */
class SetBuckets
{
  public:
    /** @p part must outlive the buckets. */
    explicit SetBuckets(const SetPartition &part);

    /** Empty every bucket (capacity is kept) and reset the filters. */
    void clear();

    /** Filter a[0..n) and append each kept address to its bucket, in
     *  every group. */
    void scatter(const Addr *a, size_t n);

    const Addr *
    data(unsigned group, unsigned shard) const
    {
        return buckets_[group * part_->shards() + shard].buf.get();
    }

    size_t
    size(unsigned group, unsigned shard) const
    {
        return buckets_[group * part_->shards() + shard].size;
    }

    /** Accesses of @p group the filter dropped since clear(): hits in
     *  every member, in no bucket. */
    uint64_t filtered(unsigned group) const
    {
        return filters_[group].dropped();
    }

  private:
    struct Bucket
    {
        /** Uninitialized storage: pages are touched only as filled. */
        std::unique_ptr<Addr[]> buf;
        size_t size = 0;
        size_t cap = 0;

        void reserveMore(size_t n);
    };

    const SetPartition *part_;
    std::vector<Bucket> buckets_; ///< [group * shards + shard]
    std::vector<SetMruFilter> filters_; ///< one per group
    std::vector<Addr *> cursor_;  ///< scatter scratch, one per shard
};

/**
 * One shard of a set-partitioned multi-config simulation: the member
 * sims of every configuration, fed only the kept addresses whose set
 * this shard owns. Run one instance per shard and merge with
 * mergeShardStats(); a one-shard replay uses GroupSim instead.
 */
class SetShardSim
{
  public:
    /** @p shard in [0, part.shards()); @p part must be built from
     *  @p configs. */
    SetShardSim(const std::vector<CacheConfig> &configs, unsigned shard,
                const SetPartition &part);

    /** Feed member @p m (the constructor's m-th config) this shard's
     *  buckets of @p count consecutive slices, in slice (stream)
     *  order; shard 0 also counts the slices' filtered accesses.
     *  Distinct members may consume concurrently. */
    void consume(size_t m, const SetBuckets *slices, size_t count);

    /** Per-config statistics over this shard's sets only (shard 0's
     *  include every filtered access). */
    std::vector<CacheStats> stats() const;

  private:
    struct Member
    {
        CacheSim sim;
        unsigned group;
        uint64_t filtered = 0; ///< dropped hits credited (shard 0)
    };

    std::vector<Member> members_;
    unsigned shard_;
};

/**
 * Field-wise sum of per-shard statistics; element [c] of the result
 * merges element [c] of every shard. Exact for set-partitioned runs
 * because every set (and hence every line and every eviction) is owned
 * by exactly one shard.
 */
std::vector<CacheStats>
mergeShardStats(const std::vector<std::vector<CacheStats>> &per_shard);

/**
 * What one segment's stack-distance pass hands to the merger. Plain
 * data so sweep workers can return it by value (and the work-stealing
 * pool's result slots can default-construct it).
 */
struct StackShardPass
{
    /** Accesses profiled in this segment. */
    uint64_t accesses = 0;
    /** Local distance histogram (locally-cold accesses excluded). */
    std::vector<uint64_t> hist;
    /** Locally-cold lines in first-touch order - the accesses whose
     *  distances the reconciliation pass resolves. */
    std::vector<uint64_t> firstTouch;
    /** Every distinct line the segment saw, LRU first / MRU last. */
    std::vector<uint64_t> finalOrder;
};

/** Profiles one contiguous stream segment for later reconciliation. */
class StackSegmentPass
{
  public:
    explicit StackSegmentPass(unsigned line_bytes);
    StackSegmentPass(const StackSegmentPass &) = delete;
    StackSegmentPass &operator=(const StackSegmentPass &) = delete;

    void
    accessRange(const Addr *a, size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            prof_.access(a[i]);
    }

    /** Extract the pass; the object must not be fed afterwards. */
    StackShardPass finish();

  private:
    StackDistProfiler prof_;
    std::vector<uint64_t> firstTouch_;
};

/**
 * Exact global LRU stack over line addresses, driven by the
 * reconciliation pass: touch() computes a global stack distance and
 * promotes; promote() only reorders. Same Fenwick-over-timestamps
 * machinery as StackDistProfiler, minus the histogram and the
 * top-of-stack fast path (reconciliation touches each distinct line
 * once per segment, so there is no hot small working set to exploit).
 */
class LruStackOracle
{
  public:
    LruStackOracle() = default;

    /**
     * Record a touch of @p line: returns its stack distance (>= 1), or
     * 0 when the line was never seen (globally cold; inserted at the
     * top of the stack).
     */
    uint64_t touch(uint64_t line);

    /** Move @p line to the top of the stack; it must be present. */
    void promote(uint64_t line);

    uint64_t lines() const { return lastTime_.size(); }

  private:
    void ensureRoom();
    void compact();
    void fenwickAdd(size_t pos, int delta);
    uint64_t fenwickSuffix(size_t pos) const;
    void moveToTop(uint64_t *slot);

    LineMap lastTime_;           ///< line -> last touch timestamp
    std::vector<uint64_t> tree_; ///< Fenwick over timestamps
    std::vector<bool> present_;  ///< timestamp still live
    uint64_t now_ = 0;
};

/**
 * The merged whole-trace stack profile: same queries as
 * StackDistProfiler, reassembled from segment passes.
 */
struct ShardedStackProfile
{
    unsigned lineShift = 0;
    uint64_t accesses = 0;
    uint64_t cold = 0;
    /** hist[d] = accesses with global stack distance d (d >= 1). */
    std::vector<uint64_t> hist;

    uint64_t coldMisses() const { return cold; }

    uint64_t
    misses(uint64_t size_bytes) const
    {
        uint64_t capacity = size_bytes >> lineShift;
        uint64_t m = cold;
        for (uint64_t d = capacity + 1; d < hist.size(); ++d)
            m += hist[d];
        return m;
    }

    double
    missRate(uint64_t size_bytes) const
    {
        return accesses
                   ? static_cast<double>(misses(size_bytes)) / accesses
                   : 0.0;
    }

    const std::vector<uint64_t> &histogram() const { return hist; }
};

/**
 * Reconcile segment passes (in stream order) into the exact
 * whole-trace profile. @p line_bytes must match the passes'.
 */
ShardedStackProfile
mergeStackShards(const std::vector<StackShardPass> &passes,
                 unsigned line_bytes);

} // namespace texcache

#endif // TEXCACHE_CACHE_SHARD_SIM_HH
