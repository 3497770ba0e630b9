#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/hypervisor/frame_table.h"
#include "src/sim/rng.h"

namespace nephele {
namespace {

// One Share of many sharers lands on the same state as that many single
// shares: the frame enters sharing once and the refcount counts everyone.
TEST(FrameTable, ShareOfManyEqualsRepeatedShares) {
  FrameTable ft(16);
  const Mfn batched = *ft.Alloc(1);
  const Mfn repeated = *ft.Alloc(1);
  auto entered = ft.Share(batched, 3);
  ASSERT_TRUE(entered.ok());
  EXPECT_TRUE(*entered);
  for (int i = 0; i < 3; ++i) {
    auto r = ft.Share(repeated, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, i == 0);  // only the first call enters sharing
  }
  for (Mfn m : {batched, repeated}) {
    EXPECT_TRUE(ft.IsShared(m));
    EXPECT_EQ(ft.OwnerOf(m), kDomCow);
    EXPECT_EQ(ft.info(m).refcount, 4u);  // owner + three sharers
  }
  EXPECT_EQ(ft.shared_frames(), 2u);
  EXPECT_EQ(ft.frames_saved_by_sharing(), 6u);
}

TEST(FrameTable, AllocAndRelease) {
  FrameTable ft(16);
  EXPECT_EQ(ft.free_frames(), 16u);
  auto mfn = ft.Alloc(1);
  ASSERT_TRUE(mfn.ok());
  EXPECT_EQ(ft.free_frames(), 15u);
  EXPECT_EQ(ft.OwnerOf(*mfn), 1);
  EXPECT_TRUE(ft.Release(*mfn).ok());
  EXPECT_EQ(ft.free_frames(), 16u);
}

TEST(FrameTable, ExhaustionReported) {
  FrameTable ft(2);
  EXPECT_TRUE(ft.Alloc(1).ok());
  EXPECT_TRUE(ft.Alloc(1).ok());
  auto r = ft.Alloc(1);
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(FrameTable, ReleasedFramesAreReusable) {
  FrameTable ft(1);
  auto a = ft.Alloc(1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(ft.Release(*a).ok());
  auto b = ft.Alloc(2);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(ft.OwnerOf(*b), 2);
}

TEST(FrameTable, ShareTransfersOwnershipToDomCow) {
  FrameTable ft(4);
  auto mfn = ft.Alloc(5);
  ASSERT_TRUE(mfn.ok());
  auto entered = ft.Share(*mfn, 1);
  ASSERT_TRUE(entered.ok());
  EXPECT_TRUE(*entered);
  EXPECT_TRUE(ft.IsShared(*mfn));
  EXPECT_EQ(ft.OwnerOf(*mfn), kDomCow);
  EXPECT_EQ(ft.info(*mfn).refcount, 2u);
  EXPECT_EQ(ft.shared_frames(), 1u);
  EXPECT_EQ(ft.frames_saved_by_sharing(), 1u);
}

// A frame enters sharing once: a second Share joins it instead, reports that
// it was no first share, and the frame still counts once under dom_cow.
TEST(FrameTable, ShareFirstRejectsDoubleShare) {
  FrameTable ft(4);
  auto mfn = ft.Alloc(5);
  ASSERT_TRUE(ft.Share(*mfn, 1).ok());
  auto again = ft.Share(*mfn, 1);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
  EXPECT_EQ(ft.OwnerOf(*mfn), kDomCow);
  EXPECT_EQ(ft.shared_frames(), 1u);
}

// Joining an already-shared frame adds its sharers to the refcount and to
// the savings.
TEST(FrameTable, ShareAgainIncrementsRefcount) {
  FrameTable ft(4);
  auto mfn = ft.Alloc(5);
  ASSERT_TRUE(ft.Share(*mfn, 1).ok());
  ASSERT_TRUE(ft.Share(*mfn, 1).ok());
  EXPECT_EQ(ft.info(*mfn).refcount, 3u);
  EXPECT_EQ(ft.frames_saved_by_sharing(), 2u);
}

// Share reports a join only for a frame already in sharing: on a private
// frame it is a first share, and a released frame cannot be shared at all.
TEST(FrameTable, ShareAgainRequiresShared) {
  FrameTable ft(4);
  auto mfn = ft.Alloc(5);
  auto first = ft.Share(*mfn, 1);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  const Mfn released = *ft.Alloc(5);
  ASSERT_TRUE(ft.Release(released).ok());
  EXPECT_EQ(ft.Share(released, 1).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ft.shared_frames(), 1u);
}

TEST(FrameTable, CowWriteWithMultipleSharersCopies) {
  FrameTable ft(4);
  auto mfn = ft.Alloc(5);
  std::uint8_t data[] = {0xAA};
  ft.WriteBytes(*mfn, 0, data, 1);
  ASSERT_TRUE(ft.Share(*mfn, 1).ok());
  auto res = ft.ResolveCowWrite(*mfn, 6);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->copied);
  EXPECT_NE(res->mfn, *mfn);
  EXPECT_EQ(ft.OwnerOf(res->mfn), 6);
  // Contents were copied.
  std::uint8_t out = 0;
  ft.ReadBytes(res->mfn, 0, &out, 1);
  EXPECT_EQ(out, 0xAA);
  // Original still shared with refcount 1.
  EXPECT_TRUE(ft.IsShared(*mfn));
  EXPECT_EQ(ft.info(*mfn).refcount, 1u);
}

TEST(FrameTable, LastSharerGetsOwnershipInPlace) {
  FrameTable ft(4);
  auto mfn = ft.Alloc(5);
  ASSERT_TRUE(ft.Share(*mfn, 1).ok());
  auto first = ft.ResolveCowWrite(*mfn, 6);
  ASSERT_TRUE(first.ok());
  // refcount dropped to 1: the next fault transfers ownership — possibly to
  // a domain different from the original owner (Sec. 5.2).
  auto second = ft.ResolveCowWrite(*mfn, 7);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->copied);
  EXPECT_EQ(second->mfn, *mfn);
  EXPECT_EQ(ft.OwnerOf(*mfn), 7);
  EXPECT_FALSE(ft.IsShared(*mfn));
  EXPECT_EQ(ft.shared_frames(), 0u);
}

TEST(FrameTable, ReleaseSharedDropsRefcount) {
  FrameTable ft(4);
  auto mfn = ft.Alloc(5);
  ASSERT_TRUE(ft.Share(*mfn, 1).ok());
  std::size_t free_before = ft.free_frames();
  ASSERT_TRUE(ft.Release(*mfn).ok());
  EXPECT_EQ(ft.free_frames(), free_before);  // still held by one sharer
  EXPECT_EQ(ft.info(*mfn).refcount, 1u);
  ASSERT_TRUE(ft.Release(*mfn).ok());
  EXPECT_EQ(ft.free_frames(), free_before + 1);  // now actually freed
}

TEST(FrameTable, UnwrittenFramesReadZero) {
  FrameTable ft(2);
  auto mfn = ft.Alloc(1);
  std::uint8_t buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ft.ReadBytes(*mfn, 100, buf, 8);
  for (std::uint8_t b : buf) {
    EXPECT_EQ(b, 0);
  }
  EXPECT_EQ(ft.info(*mfn).data, nullptr);  // lazily materialised
}

TEST(FrameTable, WriteMaterialisesLazily) {
  FrameTable ft(2);
  auto mfn = ft.Alloc(1);
  std::uint8_t b = 0x5A;
  ft.WriteBytes(*mfn, kPageSize - 1, &b, 1);
  ASSERT_NE(ft.info(*mfn).data, nullptr);
  std::uint8_t out = 0;
  ft.ReadBytes(*mfn, kPageSize - 1, &out, 1);
  EXPECT_EQ(out, 0x5A);
}

TEST(FrameTable, CopyPageHandlesUnmaterialisedSource) {
  FrameTable ft(4);
  auto src = ft.Alloc(1);
  auto dst = ft.Alloc(1);
  std::uint8_t b = 9;
  ft.WriteBytes(*dst, 0, &b, 1);
  ft.CopyPage(*src, *dst);  // src has no data: dst resets to zero semantics
  std::uint8_t out = 1;
  ft.ReadBytes(*dst, 0, &out, 1);
  EXPECT_EQ(out, 0);
}

TEST(FrameTable, InvalidMfnRejected) {
  FrameTable ft(2);
  EXPECT_EQ(ft.Release(99).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ft.Share(0, 1).status().code(), StatusCode::kInvalidArgument);  // not allocated
}

// A fresh table hands out mfns lowest first and fails with
// kResourceExhausted at exactly total_frames() allocations; a never-used
// mfn reads as a free record.
TEST(FrameTable, ExhaustsAtExactlyTotalFrames) {
  constexpr std::size_t kTotal = 37;
  FrameTable ft(kTotal);
  EXPECT_EQ(ft.total_frames(), kTotal);
  EXPECT_FALSE(ft.info(kTotal - 1).allocated);
  EXPECT_EQ(ft.OwnerOf(kTotal - 1), kDomInvalid);
  for (std::size_t i = 0; i < kTotal; ++i) {
    auto mfn = ft.Alloc(1);
    ASSERT_TRUE(mfn.ok()) << "allocation " << i;
    EXPECT_EQ(*mfn, static_cast<Mfn>(i));
  }
  EXPECT_EQ(ft.free_frames(), 0u);
  EXPECT_EQ(ft.Alloc(1).status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(ft.Release(5).ok());
  EXPECT_EQ(*ft.Alloc(2), 5u);
  EXPECT_EQ(ft.Alloc(1).status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ft.allocated_frames(), kTotal);
}

// A table may be built on the record storage that a destroyed table of the
// same pool size left behind: none of the old records, contents or sharing
// show through.
TEST(FrameTable, StorageOfADestroyedTableStartsFresh) {
  constexpr std::size_t kTotal = 300;  // records on more than one page
  for (int round = 0; round < 3; ++round) {
    FrameTable ft(kTotal);
    EXPECT_EQ(ft.free_frames(), kTotal);
    EXPECT_EQ(ft.shared_frames(), 0u);
    EXPECT_EQ(ft.frames_saved_by_sharing(), 0u);
    for (Mfn m = 0; m < kTotal; ++m) {
      EXPECT_FALSE(ft.info(m).allocated) << "round " << round << ", mfn " << m;
    }
    const DomId owner = static_cast<DomId>(1 + round);
    for (std::size_t i = 0; i < kTotal; ++i) {
      auto mfn = ft.Alloc(owner);
      ASSERT_TRUE(mfn.ok()) << "round " << round << ", allocation " << i;
      EXPECT_EQ(*mfn, static_cast<Mfn>(i));
      const FrameInfo& f = ft.info(*mfn);
      EXPECT_EQ(f.owner, owner);
      EXPECT_FALSE(f.shared);
      EXPECT_EQ(f.refcount, 1u);
      EXPECT_EQ(f.data, nullptr);
    }
    std::uint8_t out = 1;
    ft.ReadBytes(kTotal - 1, 0, &out, 1);
    EXPECT_EQ(out, 0);
    // Leave contents and sharing behind for the next round's table.
    const std::uint8_t stamp = 0xa5;
    ft.WriteBytes(kTotal - 1, 0, &stamp, 1);
    ASSERT_TRUE(ft.Share(0, 3).ok());
  }
}

// Every COW copy below lands on a frame never handed out before, so each
// Alloc builds a new record while ResolveCowWrite still holds the shared
// frame's: the shared refcount must drop by exactly one per copy.
TEST(FrameTable, CowCopyIntoANeverUsedFrameKeepsTheSharedRefcountExact) {
  constexpr std::uint32_t kTotal = 64;
  FrameTable ft(kTotal);
  const Mfn src = *ft.Alloc(1);
  const std::uint8_t stamp = 0x5a;
  ft.WriteBytes(src, 7, &stamp, 1);
  ASSERT_TRUE(ft.Share(src, kTotal - 1).ok());
  for (std::uint32_t i = 1; i < kTotal; ++i) {
    auto res = ft.ResolveCowWrite(src, static_cast<DomId>(2 + i % 5));
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_TRUE(res->copied);
    EXPECT_EQ(res->mfn, i);
    EXPECT_EQ(ft.info(src).refcount, kTotal - i);
    EXPECT_EQ(ft.frames_saved_by_sharing(), kTotal - 1 - i);
    std::uint8_t out = 0;
    ft.ReadBytes(res->mfn, 7, &out, 1);
    EXPECT_EQ(out, stamp);
  }
  auto last = ft.ResolveCowWrite(src, 9);
  ASSERT_TRUE(last.ok());
  EXPECT_FALSE(last->copied);  // the last sharer takes the frame in place
  EXPECT_EQ(ft.OwnerOf(src), 9);
  EXPECT_EQ(ft.free_frames(), 0u);
}

// The table before records were built on first use: every record present
// from the start and every mfn on one free list, the lowest on top.
class PrefilledFreeList {
 public:
  struct Frame {
    DomId owner = kDomInvalid;
    bool shared = false;
    bool allocated = false;
    std::uint32_t refcount = 0;
  };

  explicit PrefilledFreeList(std::size_t total) : frames_(total) {
    for (std::size_t i = total; i > 0; --i) {
      free_.push_back(static_cast<Mfn>(i - 1));
    }
  }

  const Frame& frame(Mfn mfn) const { return frames_[mfn]; }
  std::size_t free_frames() const { return free_.size(); }

  std::optional<Mfn> Alloc(DomId owner) {
    if (free_.empty()) {
      return std::nullopt;
    }
    const Mfn mfn = free_.back();
    free_.pop_back();
    frames_[mfn] = Frame{owner, false, true, 1};
    return mfn;
  }

  void Release(Mfn mfn) {
    Frame& f = frames_[mfn];
    if (f.shared && f.refcount > 1) {
      --f.refcount;
      return;
    }
    f = Frame{};
    free_.push_back(mfn);
  }

  void Share(Mfn mfn, std::uint32_t sharers) {
    Frame& f = frames_[mfn];
    f.owner = kDomCow;
    f.shared = true;
    f.refcount += sharers;
  }

  // The frame the writer ends up with; nullopt when the copy finds the
  // pool empty.
  std::optional<Mfn> ResolveCowWrite(Mfn mfn, DomId writer) {
    if (frames_[mfn].refcount == 1) {
      frames_[mfn].owner = writer;
      frames_[mfn].shared = false;
      return mfn;
    }
    const std::optional<Mfn> copy = Alloc(writer);
    if (copy) {
      --frames_[mfn].refcount;
    }
    return copy;
  }

 private:
  std::vector<Frame> frames_;
  std::vector<Mfn> free_;
};

// Seeded Alloc/Release/Share/ResolveCowWrite sequences on a small pool
// return the mfns of the pre-filled free list, fail where it runs dry, and
// leave every record (never-used ones included) as it would.
class FrameTableOrder : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrameTableOrder, MatchesAPrefilledFreeList) {
  constexpr std::size_t kTotal = 24;
  FrameTable ft(kTotal);
  PrefilledFreeList model(kTotal);
  Rng rng(GetParam());
  std::vector<Mfn> refs;  // one entry per reference held
  std::size_t exhausted = 0;
  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::uint64_t r = rng.NextBelow(100);
    const DomId dom = static_cast<DomId>(1 + rng.NextBelow(4));
    if (r < 35 || refs.empty()) {
      auto got = ft.Alloc(dom);
      const std::optional<Mfn> want = model.Alloc(dom);
      if (!want) {
        ASSERT_EQ(got.status().code(), StatusCode::kResourceExhausted);
        ++exhausted;
      } else {
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(*got, *want);
        refs.push_back(*got);
      }
    } else {
      const std::size_t i = rng.NextBelow(refs.size());
      const Mfn mfn = refs[i];
      if (r < 65) {
        ASSERT_TRUE(ft.Release(mfn).ok());
        model.Release(mfn);
        refs.erase(refs.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (r < 80) {
        const auto sharers = static_cast<std::uint32_t>(1 + rng.NextBelow(3));
        ASSERT_TRUE(ft.Share(mfn, sharers).ok());
        model.Share(mfn, sharers);
        refs.insert(refs.end(), sharers, mfn);
      } else if (model.frame(mfn).shared) {
        auto got = ft.ResolveCowWrite(mfn, dom);
        const std::optional<Mfn> want = model.ResolveCowWrite(mfn, dom);
        if (!want) {
          ASSERT_EQ(got.status().code(), StatusCode::kResourceExhausted);
          ++exhausted;
        } else {
          ASSERT_TRUE(got.ok());
          ASSERT_EQ(got->mfn, *want);
          EXPECT_EQ(got->copied, *want != mfn);
          refs[i] = *want;
        }
      }
    }
    ASSERT_EQ(ft.free_frames(), model.free_frames());
    ASSERT_EQ(ft.allocated_frames(), kTotal - model.free_frames());
    for (Mfn m = 0; m < kTotal; ++m) {
      const FrameInfo& got = ft.info(m);
      const PrefilledFreeList::Frame& want = model.frame(m);
      ASSERT_EQ(got.allocated, want.allocated) << "mfn " << m;
      ASSERT_EQ(got.shared, want.shared) << "mfn " << m;
      ASSERT_EQ(got.refcount, want.refcount) << "mfn " << m;
      ASSERT_EQ(got.owner, want.owner) << "mfn " << m;
    }
  }
  EXPECT_GT(exhausted, 0u);  // the pool ran dry at least once
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameTableOrder, ::testing::Range<std::uint64_t>(1, 21));

// Property: across an arbitrary interleaving of alloc/share/cow/release,
// frames are conserved: free + allocated == total, and every shared frame
// keeps refcount >= 1 (DESIGN.md invariant 1).
class FrameConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrameConservation, RandomOperationSequence) {
  FrameTable ft(64);
  Rng rng(GetParam());
  std::vector<Mfn> owned;
  std::vector<Mfn> shared;
  for (int step = 0; step < 2000; ++step) {
    switch (rng.NextBelow(4)) {
      case 0: {
        auto mfn = ft.Alloc(static_cast<DomId>(1 + rng.NextBelow(5)));
        if (mfn.ok()) {
          owned.push_back(*mfn);
        }
        break;
      }
      case 1: {
        if (!owned.empty()) {
          std::size_t i = rng.NextBelow(owned.size());
          if (ft.Share(owned[i], 1).ok()) {
            shared.push_back(owned[i]);
            shared.push_back(owned[i]);  // two logical holders
            owned.erase(owned.begin() + static_cast<std::ptrdiff_t>(i));
          }
        }
        break;
      }
      case 2: {
        if (!shared.empty()) {
          std::size_t i = rng.NextBelow(shared.size());
          Mfn m = shared[i];
          auto res = ft.ResolveCowWrite(m, static_cast<DomId>(1 + rng.NextBelow(5)));
          if (res.ok()) {
            shared.erase(shared.begin() + static_cast<std::ptrdiff_t>(i));
            owned.push_back(res->mfn);
          }
        }
        break;
      }
      default: {
        if (!owned.empty() && rng.NextBool(0.5)) {
          std::size_t i = rng.NextBelow(owned.size());
          EXPECT_TRUE(ft.Release(owned[i]).ok());
          owned.erase(owned.begin() + static_cast<std::ptrdiff_t>(i));
        } else if (!shared.empty()) {
          std::size_t i = rng.NextBelow(shared.size());
          EXPECT_TRUE(ft.Release(shared[i]).ok());
          shared.erase(shared.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      }
    }
    EXPECT_EQ(ft.free_frames() + ft.allocated_frames(), ft.total_frames());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameConservation,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace nephele
