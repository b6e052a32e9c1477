/**
 * @file
 * The cluster event loop's ready set: the arrived, not yet dispatched
 * requests, kept sorted in the scheduling policy's before() order.
 *
 * One contiguous buffer holds the entries from a head offset on. A pop
 * from the front advances the head; a removal elsewhere erases in
 * place. The dead prefix is compacted once it is at least as long as
 * the live entries (amortised O(1) per pop), and the buffer resets
 * when it empties. Insertion checks the tail first, so an entry that
 * is not before() the last one — every fresh FIFO arrival, every
 * uniform-SLO EDF arrival — appends without a search; any other entry
 * goes in at its upper_bound.
 */

#ifndef FLASHMEM_MULTIDNN_READY_SET_HH
#define FLASHMEM_MULTIDNN_READY_SET_HH

#include <algorithm>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "multidnn/policies.hh"

namespace flashmem::multidnn {

class ReadySet
{
  public:
    explicit ReadySet(const SchedulingPolicy &policy) : policy_(policy) {}

    bool empty() const { return head_ == buf_.size(); }
    std::size_t size() const { return buf_.size() - head_; }

    /** The entries, in before() order. Invalidated by any change. */
    std::span<const ReadyRequest>
    entries() const
    {
        return {buf_.data() + head_, size()};
    }

    /**
     * Stamp @p r with the next entry number (ReadyRequest::readySeq)
     * and insert it after every entry it does not go before.
     */
    void
    insert(ReadyRequest r)
    {
        r.readySeq = next_seq_++;
        if (empty() || !policy_.before(r, buf_.back())) {
            buf_.push_back(r);
            return;
        }
        auto first = buf_.begin() + static_cast<std::ptrdiff_t>(head_);
        // r goes before the tail, so the search can skip it.
        auto pos = std::upper_bound(
            first, buf_.end() - 1, r,
            [&](const ReadyRequest &a, const ReadyRequest &b) {
                return policy_.before(a, b);
            });
        buf_.insert(pos, r);
    }

    /** Remove and return entry @p i (an index into entries()). */
    ReadyRequest
    take(std::size_t i)
    {
        FM_ASSERT(i < size(), "ready-set index out of range");
        auto at = buf_.begin() + static_cast<std::ptrdiff_t>(head_ + i);
        ReadyRequest r = *at;
        if (i == 0)
            ++head_;
        else
            buf_.erase(at);
        settle();
        return r;
    }

    /**
     * Call @p remove on every entry in before() order; it may mark the
     * entry, but must not change any field before() reads. Entries it
     * returns true for leave the set and are appended to @p removed,
     * in before() order; the rest keep their order.
     */
    template <typename RemoveFn>
    void
    extractIf(RemoveFn &&remove, std::vector<ReadyRequest> &removed)
    {
        auto first = buf_.begin() + static_cast<std::ptrdiff_t>(head_);
        auto out = first;
        for (auto it = first; it != buf_.end(); ++it) {
            if (remove(*it)) {
                removed.push_back(*it);
                continue;
            }
            if (out != it)
                *out = *it;
            ++out;
        }
        buf_.erase(out, buf_.end());
        settle();
    }

  private:
    /** Reset an empty buffer; compact a dead prefix that has grown at
     * least as long as the live entries. */
    void
    settle()
    {
        if (empty()) {
            buf_.clear();
            head_ = 0;
        } else if (head_ >= size()) {
            buf_.erase(buf_.begin(),
                       buf_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    const SchedulingPolicy &policy_;
    std::vector<ReadyRequest> buf_;
    std::size_t head_ = 0;
    std::uint64_t next_seq_ = 0;
};

} // namespace flashmem::multidnn

#endif // FLASHMEM_MULTIDNN_READY_SET_HH
