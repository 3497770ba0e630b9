// Tests for the virtual block device — the Sec. 5.3 "new device type"
// extension: backend COW disks, the clone path through xencloned, and the
// guest-visible frontend.

#include <gtest/gtest.h>

#include "src/apps/udp_ready_app.h"
#include "src/devices/vbd.h"
#include "src/guest/guest_manager.h"
#include "src/xenstore/path.h"

namespace nephele {
namespace {

TEST(BlockStore, AllocRefUnref) {
  BlockStore store;
  BlockId b = store.AllocZero();
  EXPECT_EQ(store.RefCount(b), 1u);
  store.Ref(b);
  EXPECT_EQ(store.RefCount(b), 2u);
  store.Unref(b);
  store.Unref(b);
  EXPECT_EQ(store.RefCount(b), 0u);
  EXPECT_EQ(store.live_blocks(), 0u);
}

TEST(BlockStore, LazyMaterialisation) {
  BlockStore store;
  BlockId b = store.AllocZero();
  std::uint8_t buf[4] = {1, 2, 3, 4};
  store.ReadBytes(b, 0, buf, 4);
  EXPECT_EQ(buf[0], 0);
  EXPECT_EQ(store.MaterialisedBytes(), 0u);
  std::uint8_t v = 9;
  store.WriteBytes(b, 100, &v, 1);
  EXPECT_EQ(store.MaterialisedBytes(), kVbdBlockSize);
  store.ReadBytes(b, 100, buf, 1);
  EXPECT_EQ(buf[0], 9);
}

TEST(BlockStore, CowWriteSemantics) {
  BlockStore store;
  BlockId b = store.AllocZero();
  std::uint8_t v = 7;
  store.WriteBytes(b, 0, &v, 1);
  store.Ref(b);  // two owners now
  BlockId w = store.ResolveCowWrite(b);
  EXPECT_NE(w, b);  // copy broke the share
  EXPECT_EQ(store.RefCount(b), 1u);
  std::uint8_t out = 0;
  store.ReadBytes(w, 0, &out, 1);
  EXPECT_EQ(out, 7);  // contents copied
  // Sole owner writes in place.
  EXPECT_EQ(store.ResolveCowWrite(w), w);
}

class VbdBackendTest : public ::testing::Test {
 protected:
  DeviceId Disk(DomId dom) { return DeviceId{dom, DeviceType::kVbd, 0}; }

  EventLoop loop_;
  MetricsRegistry metrics_;
  FaultInjector faults_{metrics_};
  VbdBackend backend_{loop_, DefaultCostModel(), *faults_.GetPoint("devices/vbd_clone")};
};

TEST_F(VbdBackendTest, CreateReadWrite) {
  ASSERT_TRUE(backend_.CreateDisk(Disk(1), 8).ok());
  EXPECT_EQ(*backend_.DiskSize(Disk(1)), 8 * kMiB);
  std::uint8_t data[] = {0xAA, 0xBB};
  ASSERT_TRUE(backend_.Write(Disk(1), 5000, data, 2).ok());
  std::uint8_t out[2] = {};
  ASSERT_TRUE(backend_.Read(Disk(1), 5000, out, 2).ok());
  EXPECT_EQ(out[0], 0xAA);
  EXPECT_EQ(out[1], 0xBB);
}

TEST_F(VbdBackendTest, BoundsChecked) {
  ASSERT_TRUE(backend_.CreateDisk(Disk(1), 1).ok());
  std::uint8_t b = 0;
  EXPECT_EQ(backend_.Write(Disk(1), kMiB, &b, 1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(backend_.Read(Disk(9), 0, &b, 1).code(), StatusCode::kNotFound);
}

TEST_F(VbdBackendTest, WriteSpansBlocks) {
  ASSERT_TRUE(backend_.CreateDisk(Disk(1), 1).ok());
  std::vector<std::uint8_t> data(kVbdBlockSize + 10, 0x5A);
  ASSERT_TRUE(backend_.Write(Disk(1), kVbdBlockSize - 5, data.data(), data.size()).ok());
  std::uint8_t out = 0;
  ASSERT_TRUE(backend_.Read(Disk(1), 2 * kVbdBlockSize + 4, &out, 1).ok());
  EXPECT_EQ(out, 0x5A);
}

TEST_F(VbdBackendTest, CloneSharesBlocks) {
  ASSERT_TRUE(backend_.CreateDisk(Disk(1), 4).ok());
  std::uint8_t v = 0x42;
  ASSERT_TRUE(backend_.Write(Disk(1), 0, &v, 1).ok());
  std::size_t blocks_before = backend_.store().live_blocks();
  ASSERT_TRUE(backend_.CloneDisk(Disk(1), Disk(2)).ok());
  // No new blocks: the child's table references the parent's.
  EXPECT_EQ(backend_.store().live_blocks(), blocks_before);
  std::uint8_t out = 0;
  ASSERT_TRUE(backend_.Read(Disk(2), 0, &out, 1).ok());
  EXPECT_EQ(out, 0x42);
}

TEST_F(VbdBackendTest, CloneCowIsolation) {
  ASSERT_TRUE(backend_.CreateDisk(Disk(1), 4).ok());
  std::uint8_t parent_v = 1;
  ASSERT_TRUE(backend_.Write(Disk(1), 64, &parent_v, 1).ok());
  ASSERT_TRUE(backend_.CloneDisk(Disk(1), Disk(2)).ok());
  // Child overwrites; parent must keep its data.
  std::uint8_t child_v = 2;
  ASSERT_TRUE(backend_.Write(Disk(2), 64, &child_v, 1).ok());
  std::uint8_t out = 0;
  ASSERT_TRUE(backend_.Read(Disk(1), 64, &out, 1).ok());
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(backend_.Read(Disk(2), 64, &out, 1).ok());
  EXPECT_EQ(out, 2);
  // Exactly one block diverged on each side of that block's share.
  EXPECT_EQ(backend_.PrivateBlocks(Disk(2)), 1u);
}

TEST_F(VbdBackendTest, DestroyReleasesReferences) {
  ASSERT_TRUE(backend_.CreateDisk(Disk(1), 2).ok());
  ASSERT_TRUE(backend_.CloneDisk(Disk(1), Disk(2)).ok());
  std::size_t live = backend_.store().live_blocks();
  ASSERT_TRUE(backend_.DestroyDisk(Disk(2)).ok());
  EXPECT_EQ(backend_.store().live_blocks(), live);  // parent still refs them
  ASSERT_TRUE(backend_.DestroyDisk(Disk(1)).ok());
  EXPECT_EQ(backend_.store().live_blocks(), 0u);
}

TEST_F(VbdBackendTest, CloneRequiresParent) {
  EXPECT_EQ(backend_.CloneDisk(Disk(7), Disk(8)).code(), StatusCode::kNotFound);
}

// --- Full-system integration: boot with vbd, fork, verify the clone path ---

class VbdSystemTest : public ::testing::Test {
 protected:
  VbdSystemTest() : system_(SmallSystem()), guests_(system_) {}

  static SystemConfig SmallSystem() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 128 * 1024;
    return cfg;
  }

  DomId BootWithDisk() {
    DomainConfig cfg;
    cfg.name = "disky";
    cfg.memory_mb = 8;
    cfg.max_clones = 8;
    cfg.with_vbd = true;
    cfg.vbd_size_mb = 16;
    auto dom = guests_.Launch(cfg, std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
    EXPECT_TRUE(dom.ok());
    system_.Settle();
    return *dom;
  }

  NepheleSystem system_;
  GuestManager guests_;
};

TEST_F(VbdSystemTest, BootCreatesConnectedDisk) {
  DomId dom = BootWithDisk();
  GuestContext* ctx = guests_.ContextOf(dom);
  ASSERT_NE(ctx->block(), nullptr);
  EXPECT_EQ(*ctx->block()->Size(), 16 * kMiB);
  EXPECT_EQ(*system_.xenstore().Read(XsBackendPath(kDom0, "vbd", dom, 0) + "/state"), "4");
}

TEST_F(VbdSystemTest, GuestReadWriteThroughFrontend) {
  DomId dom = BootWithDisk();
  VbdFrontend* disk = guests_.ContextOf(dom)->block();
  ASSERT_TRUE(disk->Write(1234, {9, 8, 7}).ok());
  auto data = disk->Read(1234, 3);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, (std::vector<std::uint8_t>{9, 8, 7}));
}

TEST_F(VbdSystemTest, CloneGetsCowSnapshotDisk) {
  DomId parent = BootWithDisk();
  VbdFrontend* pdisk = guests_.ContextOf(parent)->block();
  ASSERT_TRUE(pdisk->Write(0, {'s', 'n', 'a', 'p'}).ok());

  DomId child = kDomInvalid;
  ASSERT_TRUE(guests_.ContextOf(parent)
                  ->Fork(1,
                         [&](GuestContext& ctx, GuestApp&, const ForkResult& r) {
                           if (r.is_child) {
                             child = ctx.id();
                           }
                         })
                  .ok());
  system_.Settle();
  ASSERT_NE(child, kDomInvalid);

  // Xenstore entries for the child's disk exist with rewritten ids.
  EXPECT_EQ(*system_.xenstore().Read(XsBackendPath(kDom0, "vbd", child, 0) + "/frontend-id"),
            std::to_string(child));

  // The child sees the parent's pre-fork data ...
  VbdFrontend* cdisk = guests_.ContextOf(child)->block();
  ASSERT_NE(cdisk, nullptr);
  auto data = cdisk->Read(0, 4);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), "snap");

  // ... and writes diverge in both directions.
  ASSERT_TRUE(cdisk->Write(0, {'c'}).ok());
  ASSERT_TRUE(pdisk->Write(1, {'P'}).ok());
  EXPECT_EQ((*pdisk->Read(0, 1))[0], 's');
  EXPECT_EQ((*cdisk->Read(0, 1))[0], 'c');
  EXPECT_EQ((*cdisk->Read(1, 1))[0], 'n');
  EXPECT_EQ((*pdisk->Read(1, 1))[0], 'P');
}

TEST_F(VbdSystemTest, CloneDiskCostsNoBlocksUpfront) {
  DomId parent = BootWithDisk();
  std::size_t blocks_before = system_.devices().vbd().store().live_blocks();
  ASSERT_TRUE(guests_.ContextOf(parent)->Fork(1, nullptr).ok());
  system_.Settle();
  EXPECT_EQ(system_.devices().vbd().store().live_blocks(), blocks_before);
}

TEST_F(VbdSystemTest, DestroyCloneKeepsParentDisk) {
  DomId parent = BootWithDisk();
  VbdFrontend* pdisk = guests_.ContextOf(parent)->block();
  ASSERT_TRUE(pdisk->Write(0, {1}).ok());
  ASSERT_TRUE(guests_.ContextOf(parent)->Fork(1, nullptr).ok());
  system_.Settle();
  DomId child = system_.hypervisor().FindDomain(parent)->children.front();
  ASSERT_TRUE(guests_.Destroy(child).ok());
  EXPECT_EQ((*pdisk->Read(0, 1))[0], 1);
}

}  // namespace
}  // namespace nephele
