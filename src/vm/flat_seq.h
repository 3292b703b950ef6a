/**
 * @file
 * A contiguous sequence with a movable head, the storage behind the
 * sorted VM bookkeeping (reservations, VMAs, resident pages).
 *
 * The VM workloads grow and shrink their tables at the ends: sandboxes
 * are reserved in ascending address order and torn down oldest first
 * (§6.3.2's 256k-sandbox run), heaps grow by splitting the last VMA
 * (§6.1). A plain std::vector makes the front erase O(n) per element; a
 * node-based std::map pays an allocation and a pointer chase per entry.
 * FlatSeq keeps the elements in one array whose live part starts at
 * index `head`, so both ends insert and erase in amortised O(1), the
 * middle is a memmove, and lookups binary-search contiguous memory.
 * The caller keeps the elements sorted.
 */

#ifndef HFI_VM_FLAT_SEQ_H
#define HFI_VM_FLAT_SEQ_H

#include <algorithm>
#include <cstddef>
#include <vector>

namespace hfi::vm
{

template <typename T>
class FlatSeq
{
  public:
    T *begin() { return buf.data() + head; }
    T *end() { return buf.data() + buf.size(); }
    const T *begin() const { return buf.data() + head; }
    const T *end() const { return buf.data() + buf.size(); }

    std::size_t size() const { return buf.size() - head; }
    bool empty() const { return buf.size() == head; }

    /** Insert @p value before @p pos; returns the inserted element. */
    T *
    insert(T *pos, const T &value)
    {
        const std::size_t i = static_cast<std::size_t>(pos - begin());
        const std::size_t n = size();
        if (i == n) {
            // A full buffer whose dead prefix is at least as long as the
            // live part compacts instead of reallocating: each erase at
            // the front pays for one element moved here.
            if (buf.size() == buf.capacity() && head >= n) {
                buf.erase(buf.begin(),
                          buf.begin() + static_cast<std::ptrdiff_t>(head));
                head = 0;
            }
            buf.push_back(value);
            return end() - 1;
        }
        if (i > n / 2) {
            buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(head + i),
                       value);
            return begin() + i;
        }
        if (head == 0) {
            // Open as much headroom in front as there are elements, so a
            // run of front inserts is amortised O(1).
            std::vector<T> grown(std::max<std::size_t>(n, 8) + n);
            head = grown.size() - n;
            std::copy(buf.begin(), buf.end(),
                      grown.begin() + static_cast<std::ptrdiff_t>(head));
            buf.swap(grown);
        }
        // Shift the (shorter) front part one slot into the headroom.
        std::move(begin(), begin() + i, begin() - 1);
        --head;
        begin()[i] = value;
        return begin() + i;
    }

    /** Erase [first, last), moving whichever side is shorter. */
    void
    erase(T *first, T *last)
    {
        const std::size_t count = static_cast<std::size_t>(last - first);
        if (first - begin() < end() - last) {
            std::move_backward(begin(), first, last);
            head += count;
        } else {
            std::move(last, end(), first);
            buf.resize(buf.size() - count);
        }
        if (empty()) {
            buf.clear();
            head = 0;
        }
    }

  private:
    std::vector<T> buf;
    /** Index of the first live element; [0, head) is dead headroom. */
    std::size_t head = 0;
};

} // namespace hfi::vm

#endif // HFI_VM_FLAT_SEQ_H
