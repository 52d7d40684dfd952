// Fixed-capacity ring buffer used as the storage of simulated FIFOs.
//
// Capacity is fixed at construction (hardware FIFOs do not grow); push/pop
// are O(1) and never allocate after construction. Besides by-value push/pop,
// elements can be built and read in their slots: back_slot() + publish()
// is an in-place push, take() an in-place pop.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace dfc {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : storage_(capacity) {
    DFC_REQUIRE(capacity > 0, "RingBuffer capacity must be positive");
  }

  std::size_t capacity() const { return storage_.size(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == storage_.size(); }

  /// The free slot the next element will occupy; the buffer must not be
  /// full. It holds whatever an earlier element left there, and becomes an
  /// element only at publish().
  T& back_slot() {
    DFC_ASSERT(!full(), "RingBuffer::back_slot on full buffer");
    return storage_[tail_];
  }

  /// Appends back_slot() as the newest element.
  void publish() {
    DFC_ASSERT(!full(), "RingBuffer overflow");
    tail_ = advance(tail_);
    ++size_;
  }

  /// Appends an element; the buffer must not be full.
  void push(T value) {
    back_slot() = std::move(value);
    publish();
  }

  /// Removes the oldest element and returns its slot, which keeps the value
  /// until a later push reuses it. The buffer must not be empty.
  T& take() {
    DFC_ASSERT(!empty(), "RingBuffer underflow");
    T& slot = storage_[head_];
    head_ = advance(head_);
    --size_;
    return slot;
  }

  /// Removes and returns the oldest element; the buffer must not be empty.
  T pop() { return std::move(take()); }

  /// Inserts `value` ahead of the oldest element, leaving back_slot() where
  /// it is; the buffer must not be full.
  void push_front(const T& value) {
    DFC_ASSERT(!full(), "RingBuffer overflow");
    head_ = head_ == 0 ? storage_.size() - 1 : head_ - 1;
    storage_[head_] = value;
    ++size_;
  }

  /// Oldest element without removing it.
  const T& front() const {
    DFC_ASSERT(!empty(), "RingBuffer::front on empty buffer");
    return storage_[head_];
  }

  /// Mutable access to the oldest element (in-place fault injection).
  T& front_mut() {
    DFC_ASSERT(!empty(), "RingBuffer::front_mut on empty buffer");
    return storage_[head_];
  }

  /// Element `i` positions behind the front (0 == front).
  const T& at(std::size_t i) const {
    DFC_ASSERT(i < size_, "RingBuffer::at out of range");
    std::size_t idx = head_ + i;
    if (idx >= storage_.size()) idx -= storage_.size();
    return storage_[idx];
  }

  void clear() {
    head_ = tail_ = 0;
    size_ = 0;
  }

 private:
  std::size_t advance(std::size_t i) const {
    ++i;
    return i == storage_.size() ? 0 : i;
  }

  std::vector<T> storage_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dfc
