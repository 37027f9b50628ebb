// Shared probe-path state for BCP (DESIGN.md §5g).
//
// A probe's mutable per-hop scalars (arrival time, accumulated QoS,
// remaining budget) are O(1) to copy, but its *prefix* — the components
// chosen so far — is O(depth), and the seed implementation deep-copied it
// into every child probe at every hop: one request cost O(depth² ×
// fanout) in copies. The soft holds backing those components are not
// part of the prefix: the engine records each one once, in the request's
// reservation tables (hold_keys.hpp).
//
// Here the prefix is an immutable cons-list of `PathSegment`s: spawning a
// child appends exactly one node and shares the parent's entire tail.
// Segments are never mutated after creation (sibling probes read the same
// nodes), reference-counted, and allocated from a per-request `PathArena`
// with a free list, so a dropped probe's exclusive suffix is recycled
// into the next spawn instead of hitting the general-purpose allocator.
//
// Ownership rules:
//  * every `PathRef` (the probe-held smart pointer) owns one reference on
//    its leaf segment;
//  * every segment owns one reference on its parent;
//  * releasing a leaf therefore walks toward the root, stopping at the
//    first segment still shared with a sibling or an arrived probe.
//
// The arena lives in the engine's per-request ComposeState and must
// outlive every probe of that request. Sharing never changes a decision:
// segments are immutable and decisions do not depend on the order probes
// are processed in, so the deep-copy `clone_append` oracle yields the same
// results. Flattening back to a positional per-hop view happens exactly
// once, at `finalize()`, via `FlatPrefix`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "service/component.hpp"

namespace spider::core {

/// One hop of a probe's chosen prefix. Immutable once appended; `parent`
/// links toward the request source (nullptr for the first hop).
struct PathSegment {
  service::ComponentMetadata component;  ///< replica chosen at this hop
  PathSegment* parent = nullptr;
  std::uint32_t depth = 0;  ///< chain length including this segment
  std::uint32_t refs = 0;   ///< managed by PathArena
};

class PathRef;

/// Bump allocator + free list for one request's PathSegments. Node-based
/// storage (std::deque) keeps segment addresses stable for the arena's
/// lifetime; recycled nodes are reused in LIFO order, so the hot spawn
/// path of a deep probing tree runs entirely out of a few cache-warm
/// slabs. Single-threaded by design: a compose run owns its arena the
/// same way it owns its RNG stream.
class PathArena {
 public:
  PathArena() = default;
  PathArena(const PathArena&) = delete;
  PathArena& operator=(const PathArena&) = delete;

  /// Appends one segment under `parent` (which may be null). The returned
  /// ref owns the new leaf; the leaf owns a reference on `parent`.
  PathRef append(const PathSegment* parent,
                 const service::ComponentMetadata& component);

  /// Deep-copies the whole chain ending at `leaf` and appends one fresh
  /// segment, sharing nothing. Byte-for-byte the same protocol state as
  /// append() — only the memory behaviour differs. This is the seed
  /// engine's deep-copy spawn, kept as a test oracle for the
  /// prefix-sharing equivalence suite (BcpConfig::debug_clone_prefixes).
  PathRef clone_append(const PathSegment* leaf,
                       const service::ComponentMetadata& component);

  void retain(PathSegment* seg) {
    if (seg != nullptr) ++seg->refs;
  }

  /// Drops one reference on `seg`; fully released suffixes are walked
  /// toward the root and recycled into the free list.
  void release(PathSegment* seg) {
    while (seg != nullptr && --seg->refs == 0) {
      PathSegment* parent = seg->parent;
      seg->parent = free_;  // dead node: parent doubles as free-list link
      free_ = seg;
      --live_;
      seg = parent;
    }
  }

  /// Fresh nodes constructed (free-list hits excluded).
  std::uint64_t segments_allocated() const { return allocated_; }
  /// Spawns served from the free list instead of fresh storage.
  std::uint64_t freelist_reused() const { return reused_; }
  /// Currently reachable segments.
  std::uint64_t live_segments() const { return live_; }
  /// High-water mark of live segments — with segments_allocated() the
  /// request's peak-RSS proxy: peak bytes ≈ peak_live_segments() ×
  /// sizeof(PathSegment).
  std::uint64_t peak_live_segments() const { return peak_live_; }

 private:
  PathSegment* take() {
    PathSegment* seg;
    if (free_ != nullptr) {
      seg = free_;
      free_ = seg->parent;
      ++reused_;
    } else {
      slabs_.emplace_back();
      seg = &slabs_.back();
      ++allocated_;
    }
    ++live_;
    if (live_ > peak_live_) peak_live_ = live_;
    return seg;
  }

  PathSegment* fill(PathSegment* parent,
                    const service::ComponentMetadata& component) {
    PathSegment* seg = take();
    seg->component = component;
    seg->parent = parent;
    seg->depth = parent == nullptr ? 1 : parent->depth + 1;
    seg->refs = 1;
    retain(parent);
    return seg;
  }

  std::deque<PathSegment> slabs_;
  PathSegment* free_ = nullptr;
  std::uint64_t allocated_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t peak_live_ = 0;

  friend class PathRef;
};

/// RAII reference to the leaf of a prefix chain. Copying is O(1) — one
/// refcount increment — which is exactly what makes probe spawn O(1).
class PathRef {
 public:
  PathRef() = default;
  PathRef(const PathRef& o) : arena_(o.arena_), seg_(o.seg_) {
    if (arena_ != nullptr) arena_->retain(seg_);
  }
  PathRef(PathRef&& o) noexcept : arena_(o.arena_), seg_(o.seg_) {
    o.seg_ = nullptr;
  }
  PathRef& operator=(const PathRef& o) {
    if (this != &o) {
      reset();
      arena_ = o.arena_;
      seg_ = o.seg_;
      if (arena_ != nullptr) arena_->retain(seg_);
    }
    return *this;
  }
  PathRef& operator=(PathRef&& o) noexcept {
    if (this != &o) {
      reset();
      arena_ = o.arena_;
      seg_ = o.seg_;
      o.seg_ = nullptr;
    }
    return *this;
  }
  ~PathRef() { reset(); }

  void reset() {
    if (seg_ != nullptr) {
      arena_->release(seg_);
      seg_ = nullptr;
    }
  }

  const PathSegment* get() const { return seg_; }
  std::uint32_t depth() const { return seg_ == nullptr ? 0 : seg_->depth; }
  explicit operator bool() const { return seg_ != nullptr; }

 private:
  PathRef(PathArena* arena, PathSegment* seg) : arena_(arena), seg_(seg) {}

  PathArena* arena_ = nullptr;
  PathSegment* seg_ = nullptr;

  friend class PathArena;
};

inline PathRef PathArena::append(const PathSegment* parent,
                                 const service::ComponentMetadata& component) {
  return PathRef(this, fill(const_cast<PathSegment*>(parent), component));
}

inline PathRef PathArena::clone_append(
    const PathSegment* leaf, const service::ComponentMetadata& component) {
  // Rebuild root-first so parent links point at the fresh copies.
  std::vector<const PathSegment*> chain(leaf == nullptr ? 0 : leaf->depth);
  for (const PathSegment* s = leaf; s != nullptr; s = s->parent) {
    chain[s->depth - 1] = s;
  }
  PathSegment* parent = nullptr;
  for (const PathSegment* src : chain) {
    PathSegment* copy = fill(parent, src->component);
    if (parent != nullptr) release(parent);  // child's link now owns it
    parent = copy;
  }
  PathSegment* fresh = fill(parent, component);
  if (parent != nullptr) release(parent);
  return PathRef(this, fresh);
}

/// Root-first positional view of one probe's prefix chain — the flat-view
/// helper `finalize()` reads prefixes through, so the destination-side
/// merge observes exactly the per-hop components the seed engine carried.
class FlatPrefix {
 public:
  FlatPrefix() = default;
  explicit FlatPrefix(const PathSegment* leaf) {
    hops_.resize(leaf == nullptr ? 0 : leaf->depth);
    for (const PathSegment* s = leaf; s != nullptr; s = s->parent) {
      hops_[s->depth - 1] = s;
    }
  }

  std::size_t size() const { return hops_.size(); }
  const service::ComponentMetadata& component(std::size_t k) const {
    return hops_[k]->component;
  }

 private:
  std::vector<const PathSegment*> hops_;
};

}  // namespace spider::core
