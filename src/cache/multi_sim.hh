/**
 * @file
 * Single-pass multi-configuration cache simulation.
 *
 * Every figure of the paper is a sweep: one address stream replayed
 * under many cache organizations. Replaying once per organization pays
 * the trace walk and the address mapping N times. Two collapses remove
 * almost all of that (DESIGN.md section 8):
 *
 *  - FaCapacitySweep: Mattson's inclusion property - an LRU stack of
 *    capacity C always holds a superset of the lines a smaller LRU
 *    stack holds - means one stack-distance pass yields the *exact*
 *    miss count of a fully associative LRU cache at every capacity
 *    simultaneously.
 *
 *  - GroupSim: set-associative caches do not obey inclusion across
 *    set counts (a different index function reshuffles which lines
 *    conflict), so each organization still needs its own simulator
 *    state; but all of them can consume one shared pass over the
 *    stream, paying trace decode + layout mapping once for the whole
 *    (size, line) family.
 *
 * One inclusion does hold across set counts, at the most recent
 * position only, and SetMruFilter exploits it ahead of every
 * set-associative replay (GroupSim here, SetBuckets in shard_sim.hh).
 * Under bit-selection indexing a cache with 2^k sets refines one with
 * 2^j sets (j <= k): every set of the finer cache lies inside one set
 * of the coarser. So if line L was the last access to its coarse set,
 * it was also the last access to its set in every finer cache - at
 * any associativity - and a repeat of L is a hit that changes no LRU
 * state, no cold count and no eviction count in every member. The
 * filter keys a table of last lines by the set-index bits a family
 * shares (LineGroups), drops those repeats once, and counts them; each
 * member simulates only the kept accesses and reports its simulated
 * statistics plus the dropped count in `accesses`. This is the
 * inclusion behind Hill and Smith's all-associativity simulation
 * [IEEE TC 1989], applied to the MRU position. Texture streams repeat
 * their set's most recent line on most accesses (bilinear and
 * trilinear footprints), so the members see a fraction of the stream.
 *
 * All of these consume plain address spans so they stay below core/
 * in the layering; core/experiment.cc glues them to traces and
 * layouts.
 */

#ifndef TEXCACHE_CACHE_MULTI_SIM_HH
#define TEXCACHE_CACHE_MULTI_SIM_HH

#include <cstddef>
#include <vector>

#include "cache/cache_sim.hh"
#include "cache/stack_dist.hh"

namespace texcache {

/**
 * Exact fully-associative LRU statistics for an arbitrary set of
 * capacities from one pass over the address stream.
 */
class FaCapacitySweep
{
  public:
    /** @p sizes are capacities in bytes; any order, need not be sorted. */
    FaCapacitySweep(unsigned line_bytes, std::vector<uint64_t> sizes);

    void access(Addr a) { prof_.access(a); }

    /** Feed a contiguous span of addresses (the mapRange fast path). */
    void
    accessRange(const Addr *a, size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            prof_.access(a[i]);
    }

    /**
     * Statistics per requested capacity, aligned with the constructor's
     * size list. Identical to what a FullyAssocLru of that capacity
     * would have returned after the same stream.
     */
    std::vector<CacheStats> stats() const;

    /** The underlying profiler (for working-set analysis). */
    const StackDistProfiler &profiler() const { return prof_; }

  private:
    std::vector<uint64_t> sizes_;
    StackDistProfiler prof_;
};

/**
 * A family of cache configurations grouped by line size. Within a
 * group, (line & mask) keeps the low set-index bits every member
 * shares: mask + 1 is the group's smallest set count, capped at
 * kMaxKeys. Set counts are powers of two, so each member's set index
 * determines the key (a fully associative member has one set and
 * narrows its group's key to zero bits).
 */
class LineGroups
{
  public:
    /** Largest key space: 1024 keys keep a per-key table in L1 and
     *  k % shards near-balanced for any shard count (shard_sim.hh). */
    static constexpr uint64_t kMaxKeys = 1024;

    struct Group
    {
        unsigned lineShift;
        uint64_t mask;
    };

    explicit LineGroups(const std::vector<CacheConfig> &configs);

    /** Distinct line sizes among the configurations. */
    unsigned size() const { return static_cast<unsigned>(groups_.size()); }

    const Group &operator[](unsigned g) const { return groups_[g]; }

    /** Configurations the groups were built from. */
    size_t configs() const { return groupOf_.size(); }

    /** Group of the constructor's @p i-th configuration. */
    unsigned groupOf(size_t i) const { return groupOf_[i]; }

  private:
    std::vector<Group> groups_;
    std::vector<unsigned> groupOf_;
};

/**
 * The exact set-MRU filter of one line-size group (see the file
 * comment): a table of the last line seen per key. An access whose
 * line is its key's last line is dropped and counted - it hits, and
 * changes nothing, in every member of the group - so members must
 * consume exactly the kept accesses, in order, from the point the
 * table was last reset.
 */
class SetMruFilter
{
  public:
    explicit SetMruFilter(const LineGroups::Group &group);

    /** Forget every line: the next access to each key is kept. The
     *  dropped count is zeroed too. */
    void reset();

    /** Call @p fn(addr, key) for each kept address of a[0..n), in
     *  order, where key = (addr >> lineShift) & mask. */
    template <typename Fn>
    void
    forEachKept(const Addr *a, size_t n, Fn fn)
    {
        uint64_t *last = last_.data();
        uint64_t dropped = 0;
        for (size_t i = 0; i < n; ++i) {
            uint64_t line = a[i] >> lineShift_;
            uint64_t key = line & mask_;
            if (last[key] == line) {
                ++dropped;
                continue;
            }
            last[key] = line;
            fn(a[i], key);
        }
        dropped_ += dropped;
    }

    /** Accesses dropped since the last reset(). */
    uint64_t dropped() const { return dropped_; }

  private:
    unsigned lineShift_;
    uint64_t mask_;
    std::vector<uint64_t> last_; ///< mask_ + 1 lines, ~0 when empty
    uint64_t dropped_ = 0;
};

/**
 * An arbitrary group of cache organizations driven by one shared
 * address stream - one trace decode, one layout mapping and one
 * set-MRU filter per line size amortized over every member.
 */
class GroupSim
{
  public:
    explicit GroupSim(const std::vector<CacheConfig> &configs);

    /** Feed a contiguous span of addresses to every member. */
    void accessRange(const Addr *a, size_t n);

    /** Statistics aligned with the constructor's config list. */
    std::vector<CacheStats> stats() const;

  private:
    /** Addresses filtered per step: the kept scratch stays small
     *  (32 KiB) whatever the span length. */
    static constexpr size_t kKeptBlock = 4096;

    LineGroups groups_;
    std::vector<SetMruFilter> filters_; ///< one per line-size group
    std::vector<CacheSim> sims_;
    std::vector<Addr> kept_; ///< one group's kept addresses of a block
};

} // namespace texcache

#endif // TEXCACHE_CACHE_MULTI_SIM_HH
