/**
 * @file
 * Fixed-capacity request queue with O(1) arrival-order-preserving
 * removal, SoA mirrors of the hot request fields, and incrementally
 * maintained per-bank candidate lists.
 *
 * The memory controller removes requests from the *middle* of a
 * channel queue (the scheduler picks by policy, not position), but
 * every policy tie-breaks by arrival order, which until PR 2 was
 * implicitly encoded in vector position and maintained with an O(n)
 * `erase(begin() + idx)` per CAS. This container keeps requests in a
 * fixed slot arena and threads an intrusive doubly-linked index list
 * through them in arrival order: push_back() appends at the tail,
 * erase() unlinks in O(1), and iteration walks the list — so the
 * sequence a scheduler observes is exactly the sequence the old
 * vector produced, while slot addresses stay stable for the lifetime
 * of a request (QueueEntryView keeps raw pointers across a pick).
 *
 * The fast issue engine (PR 9) adds two layers on top of the arena:
 *
 *  - SoA mirrors: bank, row, is-write, and the global arrival serial
 *    of each slot live in parallel arrays, so candidate classification
 *    touches dense words instead of chasing next_[] through full
 *    Request structs;
 *  - per-bank lists: every slot is threaded onto its bank's
 *    arrival-order FIFO, and slots targeting the bank's open row are
 *    additionally threaded onto that bank's read or write hit list
 *    (reads and writes have different CAS-legality bounds). The lists
 *    change only on the events that change the candidate sets —
 *    enqueue, CAS dequeue, PRE (clearHits), ACT (rebuildHits) — so the
 *    issuable-set evaluation never re-derives them from a queue scan.
 *
 * Invariant: a slot is on bank b's hit list iff it is queued, targets
 * bank b, and its row equals the bank's open row — the same predicate
 * the reference path's materialized view evaluates per entry per cycle.
 *
 * The rank-tier engine (PR 10) adds a third, per-source layer so the
 * source-ranked policies (ATLAS/TCM/SMS/PARBS/BLISS) can run their
 * tier selection over masks too:
 *
 *  - per-source arrival FIFOs: every slot is threaded onto its
 *    source's arrival-order list (head == the source's oldest queued
 *    request, the batch anchor of SMS and the marked prefix of PARBS);
 *  - per-(source, bank) occupancy counts backing one occupied-bank
 *    mask per source, and per-(source, bank, direction) hit counts
 *    backing one read-hit and one write-hit bank mask per source.
 *    Intersecting a source's masks with the FastIssueView legality
 *    masks answers "does source s have an issuable hit / non-hit?" in
 *    a few uint64 ops, which the per-source tier walks need;
 *  - the same three masks transposed per bank (BankLists::sources and
 *    hitSources: the sources with a queued request, a pending read
 *    hit, or a pending write hit in the bank), flipped together with
 *    the per-source bits whenever a count passes through zero. An OR
 *    of them over the legality masks' banks is the set of sources
 *    with any issuable entry — one pass over the issuable banks
 *    instead of one test per active source.
 *
 * All three layers are maintained on the same four events (enqueue,
 * CAS dequeue, PRE, ACT); nothing is derived by scanning the queue.
 *
 * The source tier costs a FIFO link and up to three count updates per
 * event, and FCFS, FR-FCFS and MEDUSA never read it. So the four
 * mutators take it as a compile-time parameter (`kSourceTier`): the
 * controller instantiated for a policy passes the policy's
 * kUsesSourceTier, and a queue driven with `false` keeps its source
 * tier empty (activeSourceMask() == 0, every source FIFO and mask
 * empty). The default, `true`, maintains every layer.
 */

#ifndef PCCS_DRAM_REQUEST_QUEUE_HH
#define PCCS_DRAM_REQUEST_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/logging.hh"
#include "dram/request.hh"

namespace pccs::dram {

/** Source-id bound shared by the queue masks and Scheduler state. */
inline constexpr unsigned kMaxQueueSources = 64;

/** Arrival-ordered request buffer of one channel. */
class RequestQueue
{
  public:
    RequestQueue(std::size_t capacity, unsigned banks)
        : slots_(capacity), next_(capacity, -1), prev_(capacity, -1),
          bankOf_(capacity, 0), rowOf_(capacity, 0),
          writeOf_(capacity, 0), serialOf_(capacity, 0),
          inHit_(capacity, 0), srcOf_(capacity, 0),
          bankNext_(capacity, -1), bankPrev_(capacity, -1),
          hitNext_(capacity, -1), hitPrev_(capacity, -1),
          srcNext_(capacity, -1), srcPrev_(capacity, -1), banks_(banks),
          srcBankCount_(kMaxQueueSources * banks, 0),
          srcHitCount_(kMaxQueueSources * banks * 2, 0),
          numBanks_(banks)
    {
        PCCS_ASSERT(capacity > 0, "request queue needs capacity");
        PCCS_ASSERT(capacity <= 0xFFFF,
                    "per-source counts support <= 65535 slots");
        PCCS_ASSERT(banks > 0 && banks <= 64,
                    "per-bank lists support 1..64 banks");
        for (std::size_t i = 0; i + 1 < capacity; ++i)
            next_[i] = static_cast<int>(i + 1);
        freeHead_ = 0;
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }
    bool empty() const { return size_ == 0; }
    bool full() const { return freeHead_ < 0; }

    /**
     * Append a request in arrival order (queue must not be full).
     * @param row_hit the request targets its bank's currently open row
     *        (links it onto the bank's read or write hit list)
     * @return the slot index holding it (stable until erase).
     */
    template <bool kSourceTier = true>
    int push_back(const Request &req, bool row_hit)
    {
        PCCS_ASSERT(!full(), "push_back on a full request queue");
        const int s = freeHead_;
        freeHead_ = next_[s];
        slots_[s] = req;
        next_[s] = -1;
        prev_[s] = tail_;
        if (tail_ >= 0)
            next_[tail_] = s;
        else
            head_ = s;
        tail_ = s;
        ++size_;

        const unsigned b = req.loc.bank;
        bankOf_[s] = static_cast<std::uint16_t>(b);
        rowOf_[s] = req.loc.row;
        writeOf_[s] = req.isWrite ? 1 : 0;
        serialOf_[s] = req.id;
        BankLists &bl = banks_[b];
        bankLink(bl, s);
        occupiedMask_ |= std::uint64_t{1} << b;

        if constexpr (kSourceTier) {
            PCCS_ASSERT(req.source < kMaxQueueSources,
                        "source id %u out of range", req.source);
            const unsigned src = req.source;
            srcOf_[s] = static_cast<std::uint8_t>(src);
            srcLink(sources_[src], s);
            activeSourceMask_ |= std::uint64_t{1} << src;
            if (srcBankCount_[src * numBanks_ + b]++ == 0) {
                srcOccupied_[src] |= std::uint64_t{1} << b;
                bl.sources |= std::uint64_t{1} << src;
            }
        }

        if (row_hit)
            hitLink<kSourceTier>(bl, s);
        else
            inHit_[s] = 0;
        return s;
    }

    /** Remove slot `s`; the relative order of the rest is unchanged. */
    template <bool kSourceTier = true>
    void erase(int s)
    {
        const int p = prev_[s];
        const int n = next_[s];
        if (p >= 0)
            next_[p] = n;
        else
            head_ = n;
        if (n >= 0)
            prev_[n] = p;
        else
            tail_ = p;
        next_[s] = freeHead_;
        prev_[s] = -1;
        freeHead_ = s;
        --size_;

        const unsigned b = bankOf_[s];
        BankLists &bl = banks_[b];
        bankUnlink(bl, s);
        if (bl.count == 0)
            occupiedMask_ &= ~(std::uint64_t{1} << b);
        if (inHit_[s])
            hitUnlink<kSourceTier>(bl, s);

        if constexpr (kSourceTier) {
            const unsigned src = srcOf_[s];
            SourceList &sl = sources_[src];
            srcUnlink(sl, s);
            if (sl.count == 0)
                activeSourceMask_ &= ~(std::uint64_t{1} << src);
            if (--srcBankCount_[src * numBanks_ + b] == 0) {
                srcOccupied_[src] &= ~(std::uint64_t{1} << b);
                bl.sources &= ~(std::uint64_t{1} << src);
            }
        }
    }

    /**
     * Drop bank `b`'s hit lists (its open row is being closed by a PRE
     * or refresh drain); the bank FIFO is untouched.
     */
    template <bool kSourceTier = true>
    void clearHits(unsigned b)
    {
        BankLists &bl = banks_[b];
        for (int s = bl.hitHead[0]; s >= 0; s = hitNext_[s]) {
            inHit_[s] = 0;
            if constexpr (kSourceTier)
                srcHitDrop(s);
        }
        for (int s = bl.hitHead[1]; s >= 0; s = hitNext_[s]) {
            inHit_[s] = 0;
            if constexpr (kSourceTier)
                srcHitDrop(s);
        }
        bl.hitHead[0] = bl.hitHead[1] = -1;
        bl.hitTail[0] = bl.hitTail[1] = -1;
        bl.hitCount[0] = bl.hitCount[1] = 0;
        hitMask_ &= ~(std::uint64_t{1} << b);
    }

    /**
     * Rebuild bank `b`'s hit lists after an ACT opened `row`: every
     * queued request of the bank targeting `row` becomes a hit, in
     * arrival order (a walk of the bank FIFO, not the whole queue).
     */
    template <bool kSourceTier = true>
    void rebuildHits(unsigned b, std::uint32_t row)
    {
        clearHits<kSourceTier>(b);
        BankLists &bl = banks_[b];
        for (int s = bl.head; s >= 0; s = bankNext_[s]) {
            if (rowOf_[s] == row)
                hitLink<kSourceTier>(bl, s);
        }
    }

    Request &slot(int s) { return slots_[s]; }
    const Request &slot(int s) const { return slots_[s]; }

    /** @return slot index of the oldest request, or -1 when empty. */
    int head() const { return head_; }

    /** @return slot index following `s` in arrival order, or -1. */
    int next(int s) const { return next_[s]; }

    /** SoA mirrors (valid while the slot is queued). */
    unsigned bank(int s) const { return bankOf_[s]; }
    std::uint32_t row(int s) const { return rowOf_[s]; }
    bool isWrite(int s) const { return writeOf_[s] != 0; }
    /** Global arrival serial (== Request::id, monotone with age). */
    std::uint64_t serial(int s) const { return serialOf_[s]; }
    /** True when the slot is on its bank's hit list (open-row match). */
    bool isHit(int s) const { return inHit_[s] != 0; }

    /** Banks with at least one queued request, one bit per bank. */
    std::uint64_t occupiedMask() const { return occupiedMask_; }
    /** Banks with at least one pending open-row hit. */
    std::uint64_t hitMask() const { return hitMask_; }

    /** Oldest queued request of bank `b` (-1 when none). */
    int bankHead(unsigned b) const { return banks_[b].head; }
    /** Queued requests of bank `b`. */
    unsigned bankCount(unsigned b) const { return banks_[b].count; }
    /** Next slot of the same bank in arrival order, or -1. */
    int bankNext(int s) const { return bankNext_[s]; }

    /** Sources with at least one queued request, one bit per source. */
    std::uint64_t activeSourceMask() const { return activeSourceMask_; }

    /** Oldest queued request of source `src` (-1 when none). */
    int sourceHead(unsigned src) const { return sources_[src].head; }
    /** Next slot of the same source in arrival order, or -1. */
    int sourceNext(int s) const { return srcNext_[s]; }

    /** Banks where source `src` has at least one queued request. */
    std::uint64_t sourceOccupiedMask(unsigned src) const
    {
        return srcOccupied_[src];
    }
    /** Banks where source `src` has a pending open-row read / write hit. */
    std::uint64_t sourceHitReadMask(unsigned src) const
    {
        return srcHitRead_[src];
    }
    std::uint64_t sourceHitWriteMask(unsigned src) const
    {
        return srcHitWrite_[src];
    }

    /**
     * The same three masks transposed, one bit per source: sources
     * with a queued request in bank `b`, and sources with a pending
     * open-row read / write hit there.
     */
    std::uint64_t bankSourceMask(unsigned b) const
    {
        return banks_[b].sources;
    }
    std::uint64_t bankHitReadSourceMask(unsigned b) const
    {
        return banks_[b].hitSources[0];
    }
    std::uint64_t bankHitWriteSourceMask(unsigned b) const
    {
        return banks_[b].hitSources[1];
    }

    /** Oldest pending read / write hit of bank `b` (-1 when none). */
    int hitHeadRead(unsigned b) const { return banks_[b].hitHead[0]; }
    int hitHeadWrite(unsigned b) const { return banks_[b].hitHead[1]; }
    /** Pending read / write / total hits of bank `b`. */
    unsigned hitCountRead(unsigned b) const { return banks_[b].hitCount[0]; }
    unsigned hitCountWrite(unsigned b) const { return banks_[b].hitCount[1]; }
    unsigned hitCount(unsigned b) const
    {
        return banks_[b].hitCount[0] + banks_[b].hitCount[1];
    }

    /** Arrival-order iteration (enables range-for). */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = Request;
        using difference_type = std::ptrdiff_t;
        using pointer = const Request *;
        using reference = const Request &;

        const_iterator(const RequestQueue *q, int s) : q_(q), s_(s) {}
        const Request &operator*() const { return q_->slots_[s_]; }
        const Request *operator->() const { return &q_->slots_[s_]; }
        const_iterator &operator++()
        {
            s_ = q_->next_[s_];
            return *this;
        }
        bool operator==(const const_iterator &o) const
        {
            return s_ == o.s_;
        }
        bool operator!=(const const_iterator &o) const
        {
            return s_ != o.s_;
        }

      private:
        const RequestQueue *q_;
        int s_;
    };

    const_iterator begin() const { return {this, head_}; }
    const_iterator end() const { return {this, -1}; }

  private:
    /**
     * Intrusive list anchors of one bank ([0] = reads, [1] = writes),
     * plus its source-tier masks (one bit per source).
     */
    struct BankLists
    {
        int head = -1;
        int tail = -1;
        unsigned count = 0;
        int hitHead[2] = {-1, -1};
        int hitTail[2] = {-1, -1};
        unsigned hitCount[2] = {0, 0};
        /** Sources with a queued request in this bank. */
        std::uint64_t sources = 0;
        /** Sources with a pending read / write hit in this bank. */
        std::uint64_t hitSources[2] = {0, 0};
    };

    /** Intrusive arrival-order list anchors of one source. */
    struct SourceList
    {
        int head = -1;
        int tail = -1;
        unsigned count = 0;
    };

    void bankLink(BankLists &bl, int s)
    {
        bankNext_[s] = -1;
        bankPrev_[s] = bl.tail;
        if (bl.tail >= 0)
            bankNext_[bl.tail] = s;
        else
            bl.head = s;
        bl.tail = s;
        ++bl.count;
    }

    void bankUnlink(BankLists &bl, int s)
    {
        const int p = bankPrev_[s];
        const int n = bankNext_[s];
        if (p >= 0)
            bankNext_[p] = n;
        else
            bl.head = n;
        if (n >= 0)
            bankPrev_[n] = p;
        else
            bl.tail = p;
        --bl.count;
    }

    template <bool kSourceTier>
    void hitLink(BankLists &bl, int s)
    {
        const unsigned rw = writeOf_[s];
        hitNext_[s] = -1;
        hitPrev_[s] = bl.hitTail[rw];
        if (bl.hitTail[rw] >= 0)
            hitNext_[bl.hitTail[rw]] = s;
        else
            bl.hitHead[rw] = s;
        bl.hitTail[rw] = s;
        ++bl.hitCount[rw];
        inHit_[s] = 1;
        hitMask_ |= std::uint64_t{1} << bankOf_[s];
        if constexpr (kSourceTier)
            srcHitAdd(s);
    }

    template <bool kSourceTier>
    void hitUnlink(BankLists &bl, int s)
    {
        const unsigned rw = writeOf_[s];
        const int p = hitPrev_[s];
        const int n = hitNext_[s];
        if (p >= 0)
            hitNext_[p] = n;
        else
            bl.hitHead[rw] = n;
        if (n >= 0)
            hitPrev_[n] = p;
        else
            bl.hitTail[rw] = p;
        --bl.hitCount[rw];
        inHit_[s] = 0;
        if (bl.hitCount[0] + bl.hitCount[1] == 0)
            hitMask_ &= ~(std::uint64_t{1} << bankOf_[s]);
        if constexpr (kSourceTier)
            srcHitDrop(s);
    }

    void srcLink(SourceList &sl, int s)
    {
        srcNext_[s] = -1;
        srcPrev_[s] = sl.tail;
        if (sl.tail >= 0)
            srcNext_[sl.tail] = s;
        else
            sl.head = s;
        sl.tail = s;
        ++sl.count;
    }

    void srcUnlink(SourceList &sl, int s)
    {
        const int p = srcPrev_[s];
        const int n = srcNext_[s];
        if (p >= 0)
            srcNext_[p] = n;
        else
            sl.head = n;
        if (n >= 0)
            srcPrev_[n] = p;
        else
            sl.tail = p;
        --sl.count;
    }

    /** Slot `s` became a hit: count it for its (source, bank, rw). */
    void srcHitAdd(int s)
    {
        const unsigned src = srcOf_[s];
        const unsigned b = bankOf_[s];
        const unsigned rw = writeOf_[s];
        if (srcHitCount_[(src * numBanks_ + b) * 2 + rw]++ == 0) {
            (rw ? srcHitWrite_ : srcHitRead_)[src] |=
                std::uint64_t{1} << b;
            banks_[b].hitSources[rw] |= std::uint64_t{1} << src;
        }
    }

    /** Slot `s` stopped being a hit (CAS, PRE, or row change). */
    void srcHitDrop(int s)
    {
        const unsigned src = srcOf_[s];
        const unsigned b = bankOf_[s];
        const unsigned rw = writeOf_[s];
        if (--srcHitCount_[(src * numBanks_ + b) * 2 + rw] == 0) {
            (rw ? srcHitWrite_ : srcHitRead_)[src] &=
                ~(std::uint64_t{1} << b);
            banks_[b].hitSources[rw] &= ~(std::uint64_t{1} << src);
        }
    }

    std::vector<Request> slots_;
    /** Arrival-order successor per slot; doubles as free-list link. */
    std::vector<int> next_;
    std::vector<int> prev_;
    /** SoA mirrors of the hot request fields, indexed by slot. */
    std::vector<std::uint16_t> bankOf_;
    std::vector<std::uint32_t> rowOf_;
    std::vector<std::uint8_t> writeOf_;
    std::vector<std::uint64_t> serialOf_;
    std::vector<std::uint8_t> inHit_;
    std::vector<std::uint8_t> srcOf_;
    /** Per-bank arrival-order FIFO links, indexed by slot. */
    std::vector<int> bankNext_;
    std::vector<int> bankPrev_;
    /** Hit-list links (a slot is on at most one hit list). */
    std::vector<int> hitNext_;
    std::vector<int> hitPrev_;
    /** Per-source arrival-order FIFO links, indexed by slot. */
    std::vector<int> srcNext_;
    std::vector<int> srcPrev_;
    std::vector<BankLists> banks_;
    std::array<SourceList, kMaxQueueSources> sources_{};
    /** Queued requests per (source, bank), row-major by source. */
    std::vector<std::uint16_t> srcBankCount_;
    /** Pending hits per (source, bank, rw), rw fastest-varying. */
    std::vector<std::uint16_t> srcHitCount_;
    /**
     * Per-source bank masks derived from the counts above (their
     * per-bank transposes live in BankLists).
     */
    std::array<std::uint64_t, kMaxQueueSources> srcOccupied_{};
    std::array<std::uint64_t, kMaxQueueSources> srcHitRead_{};
    std::array<std::uint64_t, kMaxQueueSources> srcHitWrite_{};
    unsigned numBanks_ = 0;
    std::uint64_t occupiedMask_ = 0;
    std::uint64_t hitMask_ = 0;
    std::uint64_t activeSourceMask_ = 0;
    int head_ = -1;
    int tail_ = -1;
    int freeHead_ = -1;
    std::size_t size_ = 0;
};

} // namespace pccs::dram

#endif // PCCS_DRAM_REQUEST_QUEUE_HH
