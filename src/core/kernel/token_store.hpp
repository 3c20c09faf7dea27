// Flat token storage of the token-process core (DESIGN.md Sect. 5).
//
// All queue state of the token core lives in two contiguous arrays,
//
//   slots_[token] = {next, bin, walks}   one 16-byte record per token,
//   bins_[u]      = {head, tail, count}  one 12-byte header per bin,
//
// i.e. an *implicit FIFO*: each bin's queue is an intrusive singly
// linked list threaded through the token array.  A round only ever
// needs a queue's head (or, under the random policy, its k-th element)
// and appends at its tail, so head/tail identity is the whole per-bin
// state -- no per-bin allocation, no compaction, no growth: push and
// pop_front are O(1), branch-free pointer splices into memory that never
// moves.
// Resident state is 16m + 12n bytes with no per-bin allocation, which
// is what lets sharded_scaling run token rows at n = 10^8.
//
// A token's walk count (its progress: how often it was released) sits
// in its own slot, so a pop bumps it on the cache line the pop already
// holds; pushes write only next and bin, so rebuilds keep progress.  At
// mega n both arrays are backed by transparent huge pages where the
// machine allows it (support/huge_pages.hpp): a round's random slot and
// header accesses then miss the cache but not the TLB.
//
// Policy orientation: FIFO and random push at the tail (list order =
// arrival order, oldest at head); LIFO pushes at the head (list order =
// newest first).  All three policies therefore *pop the head* except
// random, which removes the k-th element in arrival order -- an
// order-preserving removal, so each random pop is a uniform member of
// the queue whatever order earlier pops left behind.
//
// Determinism: push order is the only thing that defines a queue's
// content, and the store performs pushes exactly in the order the core
// hands them over -- the canonical sorted-by-releasing-bin arrival
// order of the sharded commit is preserved verbatim, so every backend
// matches the naive per-bin-vector reference of tests/par/ bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/token_process.hpp"  // QueuePolicy
#include "support/huge_pages.hpp"
#include "support/serial.hpp"
#include "support/types.hpp"

namespace rbb::kernel {

class FlatTokenStore {
  struct TokenSlot {
    std::uint32_t next;   // successor in the bin's list, or kNil
    bin_index_t bin;      // bin of the last push
    std::uint64_t walks;  // pops of this token (its progress)
  };
  static_assert(sizeof(TokenSlot) == 16, "a slot is a quarter line");
  /// save_state()'s per-token link record: the slot without its walk
  /// count, which follows the bin headers as its own column.
  struct SlotRecord {
    std::uint32_t next;
    bin_index_t bin;
  };
  struct BinList {
    std::uint32_t head;
    std::uint32_t tail;
    std::uint32_t count;
  };

 public:
  /// List terminator / empty-bin head.  Token ids are < 2^32 - 1.
  static constexpr std::uint32_t kNil = 0xffffffffu;

  FlatTokenStore(std::uint32_t bins, std::uint32_t tokens,
                 QueuePolicy policy)
      : policy_(policy) {
    reserve_huge_pages(slots_, tokens);
    slots_.assign(tokens, TokenSlot{});
    reserve_huge_pages(bins_, bins);
    bins_.assign(bins, BinList{kNil, kNil, 0});
  }

  /// Drops every queue and re-pushes token 0, 1, ... into
  /// placement[token]: co-located tokens enqueue in token-id order,
  /// the construction/reassign convention of the token core.  Walk
  /// counts persist.
  void rebuild(const std::vector<bin_index_t>& placement) {
    std::fill(bins_.begin(), bins_.end(), BinList{kNil, kNil, 0});
    for (std::uint32_t token = 0;
         token < static_cast<std::uint32_t>(slots_.size()); ++token) {
      push(placement[token], token);
    }
  }

  [[nodiscard]] std::uint32_t token_count() const noexcept {
    return static_cast<std::uint32_t>(slots_.size());
  }
  [[nodiscard]] std::uint32_t count(bin_index_t u) const noexcept {
    return bins_[u].count;
  }
  /// Bin the token was last pushed into (== its current bin; a popped
  /// token keeps the old value until the core re-enqueues it, exactly
  /// the mid-round semantics the queue-backed core had for token_bin_).
  [[nodiscard]] bin_index_t bin_of(std::uint32_t token) const noexcept {
    return slots_[token].bin;
  }
  /// Times `token` was popped (its walk steps).
  [[nodiscard]] std::uint64_t walks(std::uint32_t token) const noexcept {
    return slots_[token].walks;
  }
  /// Head token of bin u, or kNil when empty (prefetch / inspection).
  [[nodiscard]] std::uint32_t peek_head(bin_index_t u) const noexcept {
    return bins_[u].head;
  }
  /// Successor of `token` in its bin's list, or kNil (inspection).
  [[nodiscard]] std::uint32_t next(std::uint32_t token) const noexcept {
    return slots_[token].next;
  }
  [[nodiscard]] std::uint32_t tail(bin_index_t u) const noexcept {
    return bins_[u].tail;
  }

  /// Banks the non-empty bins of [begin, end), in bin order, into
  /// out[0, k) by branch-free compaction; `out` must hold end - begin
  /// entries.  Returns k.  The departure scan of the sequential round.
  std::uint32_t bank_nonempty(bin_index_t begin, bin_index_t end,
                              bin_index_t* out) const noexcept {
    const BinList* lists = bins_.data();
    std::uint32_t k = 0;
    for (bin_index_t u = begin; u < end; ++u) {
      out[k] = u;
      k += lists[u].count != 0 ? 1 : 0;
    }
    return k;
  }

  /// Enqueues `token` into bin u per the policy orientation.
  void push(bin_index_t u, std::uint32_t token) noexcept {
    if (policy_ == QueuePolicy::kLifo) {
      push_front(u, token);
    } else {
      push_back(u, token);
    }
  }

  /// push() for FIFO / random: appends at the tail.  Branch-free (an
  /// empty target is a coin flip for the predictor -- Lemma 1): with
  /// `all` = ~0 for an empty list, the token becomes the head and its
  /// own link is rewritten to kNil; otherwise it is linked behind the
  /// tail.  The selects are mask arithmetic: written as conditionals,
  /// the compiler turns them back into branches.
  void push_back(bin_index_t u, std::uint32_t token) noexcept {
    BinList& list = bins_[u];
    const std::uint32_t all = empty_mask(list.count);
    set_link(token, kNil, u);
    slots_[select(all, token, list.tail)].next = token | all;
    list.head = select(all, token, list.head);
    list.tail = token;
    ++list.count;
  }

  /// push() for LIFO: prepends at the head (branch-free).
  void push_front(bin_index_t u, std::uint32_t token) noexcept {
    BinList& list = bins_[u];
    set_link(token, list.head, u);
    list.tail = select(empty_mask(list.count), token, list.tail);
    list.head = token;
    ++list.count;
  }

  /// Removes and returns the head of bin u and counts its walk.
  /// Requires !empty(u).  The releasing pop of FIFO (oldest) and LIFO
  /// (newest).  Branch-free: the last pop leaves head = kNil (the
  /// token's own link) and ORs the tail to kNil.
  std::uint32_t pop_front(bin_index_t u) noexcept {
    BinList& list = bins_[u];
    const std::uint32_t token = list.head;
    TokenSlot& slot = slots_[token];
    list.head = slot.next;
    ++slot.walks;
    --list.count;
    list.tail |= empty_mask(list.count);
    return token;
  }

  /// Removes and returns the k-th element of bin u's list (k = 0 is the
  /// head) and counts its walk; order-preserving.  Requires k < count(u).  The random
  /// policy's pop; O(k) list walk -- queue lengths are O(log n) w.h.p.
  /// (Theorem 1), so this stays cheap at any scale.
  std::uint32_t pop_at(bin_index_t u, std::uint32_t k) noexcept {
    if (k == 0) return pop_front(u);
    BinList& list = bins_[u];
    std::uint32_t prev = list.head;
    for (std::uint32_t i = 1; i < k; ++i) prev = slots_[prev].next;
    const std::uint32_t token = slots_[prev].next;
    TokenSlot& slot = slots_[token];
    slots_[prev].next = slot.next;
    ++slot.walks;
    if (list.tail == token) list.tail = prev;
    --list.count;
    return token;
  }

  /// Tokens of bin u in arrival order, oldest first (inspection; the
  /// LIFO-oriented list is stored newest-first and reversed here).
  [[nodiscard]] std::vector<std::uint32_t> snapshot(bin_index_t u) const {
    std::vector<std::uint32_t> out;
    out.reserve(bins_[u].count);
    for (std::uint32_t t = bins_[u].head; t != kNil; t = slots_[t].next) {
      out.push_back(t);
    }
    if (policy_ == QueuePolicy::kLifo) std::reverse(out.begin(), out.end());
    return out;
  }

  void prefetch_slot(std::uint32_t token) const noexcept {
    __builtin_prefetch(&slots_[token], 1);
  }
  void prefetch_bin(bin_index_t u) const noexcept {
    __builtin_prefetch(&bins_[u], 1);
  }
  /// Prefetches the head slot of the non-empty bin u: the slot its next
  /// pop reads and writes.
  void prefetch_head(bin_index_t u) const noexcept {
    prefetch_slot(bins_[u].head);
  }
  /// Prefetches the tail slot of bin u, which a push_back links behind.
  /// Branch-free (a tail != kNil branch mispredicts on empty bins): the
  /// index is clamped into the array, so an empty bin's kNil fetches
  /// the last slot, one line that stays cached.
  void prefetch_tail(bin_index_t u) const noexcept {
    prefetch_slot(std::min(bins_[u].tail, token_count() - 1));
  }

  [[nodiscard]] QueuePolicy policy() const noexcept { return policy_; }

  /// Serializes the raw slot/bin arrays (DESIGN.md Sect. 7) as three
  /// vec() records: the {next, bin} links, the bin headers, then the
  /// walk counts.  The raw intrusive-list state is what restore() must
  /// reproduce byte-exactly: re-pushing a logical snapshot would
  /// rebuild LIFO lists in a different physical order, and the random
  /// policy's pop_at walks the physical list.
  void save_state(serial::ByteWriter& w) const {
    w.u32(static_cast<std::uint32_t>(policy_));
    write_column<SlotRecord>(w, [](const TokenSlot& s) {
      return SlotRecord{s.next, s.bin};
    });
    w.vec(bins_);
    write_column<std::uint64_t>(w,
                                [](const TokenSlot& s) { return s.walks; });
  }

  /// Bytes save_state() writes.
  [[nodiscard]] std::size_t state_bytes() const noexcept {
    using W = serial::ByteWriter;
    return sizeof(std::uint32_t) + W::vec_bytes<SlotRecord>(slots_.size()) +
           W::vec_bytes<BinList>(bins_.size()) +
           W::vec_bytes<std::uint64_t>(slots_.size());
  }

  /// save_state() bytes that passed read_state()'s checks, not yet
  /// applied.
  struct SavedState {
    serial::ByteReader::VecView<SlotRecord> links;
    serial::ByteReader::VecView<BinList> bins;
    serial::ByteReader::VecView<std::uint64_t> walks;
  };

  /// Reads save_state() bytes and checks them against this store: the
  /// same policy and bin/token counts (std::invalid_argument otherwise).
  /// Leaves the store untouched; load_state() applies the result.
  [[nodiscard]] SavedState read_state(serial::ByteReader& r) const {
    if (r.u32() != static_cast<std::uint32_t>(policy_)) {
      throw std::invalid_argument("FlatTokenStore: queue policy mismatch");
    }
    const auto links = r.vec_view<SlotRecord>();
    const auto bins = r.vec_view<BinList>();
    if (links.count != slots_.size() || bins.count != bins_.size()) {
      throw std::invalid_argument("FlatTokenStore: shape mismatch");
    }
    const auto walks = r.vec_view<std::uint64_t>();
    if (walks.count != slots_.size()) {
      throw std::invalid_argument("FlatTokenStore: token count mismatch");
    }
    return {links, bins, walks};
  }

  /// Copies read_state()'s records into the store, interleaving each
  /// token's link record and walk count back into its slot.
  void load_state(const SavedState& saved) noexcept {
    for (std::size_t t = 0; t < slots_.size(); ++t) {
      SlotRecord link;
      std::memcpy(&link, saved.links.bytes + t * sizeof link, sizeof link);
      std::uint64_t walks;
      std::memcpy(&walks, saved.walks.bytes + t * sizeof walks, sizeof walks);
      slots_[t] = TokenSlot{link.next, link.bin, walks};
    }
    saved.bins.copy_to(bins_);
  }

  /// Bytes of resident storage (the memory column of sharded_scaling).
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return slots_.capacity() * sizeof(TokenSlot) +
           bins_.capacity() * sizeof(BinList);
  }

 private:
  /// ~0 when `count` is zero, else 0.
  static std::uint32_t empty_mask(std::uint32_t count) noexcept {
    return 0u - static_cast<std::uint32_t>(count == 0);
  }
  /// `mask` ? a : b for an all-ones / all-zeros mask.
  static std::uint32_t select(std::uint32_t mask, std::uint32_t a,
                              std::uint32_t b) noexcept {
    return b ^ ((a ^ b) & mask);
  }

  /// A push's write: the link fields only, so the walk count persists.
  void set_link(std::uint32_t token, std::uint32_t next,
                bin_index_t u) noexcept {
    TokenSlot& slot = slots_[token];
    slot.next = next;
    slot.bin = u;
  }

  /// Writes field(slot) of every slot as one vec() record, gathered
  /// through a stack chunk so the writer appends cache-hot bytes.
  template <typename Field, typename Get>
  void write_column(serial::ByteWriter& w, const Get& get) const {
    constexpr std::size_t kChunk = 512;
    Field chunk[kChunk];
    w.u64(slots_.size());
    for (std::size_t t = 0; t < slots_.size(); t += kChunk) {
      const std::size_t c = std::min(kChunk, slots_.size() - t);
      for (std::size_t j = 0; j < c; ++j) chunk[j] = get(slots_[t + j]);
      w.bytes(chunk, c * sizeof(Field));
    }
  }

  QueuePolicy policy_;
  std::vector<TokenSlot> slots_;
  std::vector<BinList> bins_;
};

}  // namespace rbb::kernel
