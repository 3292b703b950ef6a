/**
 * @file
 * Sharded run queues with bounded capacity and work stealing.
 *
 * Each simulated core owns one shard; arrivals hash to a shard and an
 * idle core whose own shard is dry steals the *oldest* request from the
 * deepest other shard (FIFO stealing — kind to tail latency, unlike
 * LIFO deque stealing which is kind to cache locality we don't model).
 * A full shard sheds the arrival at admission: under open-loop overload
 * the only alternatives are unbounded queues (unbounded tail latency)
 * or backpressure, and an open loop by definition cannot be pushed
 * back on.
 */

#ifndef HFI_SERVE_SHARD_QUEUE_H
#define HFI_SERVE_SHARD_QUEUE_H

#include <algorithm>
#include <cstddef>
#include <deque>
#include <vector>

#include "obs/trace.h"
#include "serve/request.h"

namespace hfi::serve
{

class ShardedQueues
{
  public:
    /** @p capacity bounds each shard's depth; 0 means unbounded. */
    ShardedQueues(unsigned shards, std::size_t capacity)
        : queues(shards), shedPerShard_(shards, 0),
          traceBufs_(shards, nullptr), capacity_(capacity)
    {
    }

    /**
     * Attach @p shard's owning core's trace ring: admissions record
     * QueuePush/QueueShed stamped at the request's arrival time, into
     * the shard's — i.e. that core's — buffer, so the per-core event
     * streams are identical in the sequential and the threaded driver.
     */
    void setTrace(unsigned shard, obs::TraceBuffer *buf)
    {
        traceBufs_[shard] = buf;
    }

    /** Admit @p req to @p shard. @return false when the shard is full. */
    bool
    offer(unsigned shard, const Request &req)
    {
        auto &q = queues[shard];
        if (capacity_ != 0 && q.size() >= capacity_) {
            ++shedPerShard_[shard];
            HFI_OBS_RECORD(traceBufs_[shard], obs::EventType::QueueShed,
                           req.arrivalNs, req.id,
                           traceBufs_[shard] ? traceBufs_[shard]->core() : 0);
            return false;
        }
        q.push_back(req);
        maxDepth_ = std::max(maxDepth_, q.size());
        HFI_OBS_RECORD(traceBufs_[shard], obs::EventType::QueuePush,
                       req.arrivalNs, req.id,
                       traceBufs_[shard] ? traceBufs_[shard]->core() : 0);
        return true;
    }

    /**
     * The shard worker @p worker should serve from next: its own shard
     * if non-empty, otherwise (with @p steal) the deepest other shard,
     * ties to the lowest index. @return -1 when every queue is empty.
     * The per-core reference for pickStep().
     */
    int
    pickFor(unsigned worker, bool steal) const
    {
        if (!queues[worker].empty())
            return static_cast<int>(worker);
        if (!steal)
            return -1;
        int best = -1;
        std::size_t bestDepth = 0;
        for (unsigned s = 0; s < queues.size(); ++s) {
            if (s == worker)
                continue;
            if (queues[s].size() > bestDepth) {
                bestDepth = queues[s].size();
                best = static_cast<int>(s);
            }
        }
        return best;
    }

    /** One event-loop step's service decision (worker -1: nothing queued). */
    struct StepPick
    {
        int worker = -1;
        int shard = -1;
        double startNs = 0;
    };

    /**
     * The earliest service start across all cores, core w free at
     * @p freeNs[w] (one entry per shard): each core takes pickFor(w,
     * steal)'s shard at max(freeNs[w], front arrival), ties to the
     * lowest core. O(shards): a core whose own shard is empty always
     * steals from the same victim — the deepest shard overall, ties to
     * the lowest index, since its own depth 0 never beats pickFor's
     * strict `>` — so the victim is found once, not once per core.
     */
    StepPick
    pickStep(const std::vector<double> &freeNs, bool steal) const
    {
        int victim = -1;
        double victimArrival = 0;
        if (steal) {
            std::size_t bestDepth = 0;
            for (unsigned s = 0; s < queues.size(); ++s) {
                if (queues[s].size() > bestDepth) {
                    bestDepth = queues[s].size();
                    victim = static_cast<int>(s);
                }
            }
            if (victim >= 0)
                victimArrival =
                    queues[static_cast<unsigned>(victim)].front().arrivalNs;
        }
        StepPick pick;
        for (unsigned w = 0; w < queues.size(); ++w) {
            int shard = victim;
            double arrival = victimArrival;
            if (!queues[w].empty()) {
                shard = static_cast<int>(w);
                arrival = queues[w].front().arrivalNs;
            } else if (victim < 0) {
                continue;
            }
            const double start = std::max(freeNs[w], arrival);
            if (pick.worker < 0 || start < pick.startNs) {
                pick.worker = static_cast<int>(w);
                pick.shard = shard;
                pick.startNs = start;
            }
        }
        return pick;
    }

    const Request &front(unsigned shard) const { return queues[shard].front(); }

    Request
    take(unsigned shard)
    {
        Request req = queues[shard].front();
        queues[shard].pop_front();
        return req;
    }

    std::size_t size(unsigned shard) const { return queues[shard].size(); }

    /** Arrivals shed at admission to @p shard (the per-core counter the
        engine's by-core breakdown and global total both read). */
    std::size_t shedCount(unsigned shard) const
    {
        return shedPerShard_[shard];
    }

    /** Total shed across all shards. */
    std::size_t
    shedCount() const
    {
        std::size_t total = 0;
        for (std::size_t s : shedPerShard_)
            total += s;
        return total;
    }

    std::size_t maxDepth() const { return maxDepth_; }

  private:
    std::vector<std::deque<Request>> queues;
    std::vector<std::size_t> shedPerShard_;
    std::vector<obs::TraceBuffer *> traceBufs_;
    std::size_t capacity_;
    std::size_t maxDepth_ = 0;
};

} // namespace hfi::serve

#endif // HFI_SERVE_SHARD_QUEUE_H
