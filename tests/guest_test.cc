#include <gtest/gtest.h>

#include "src/apps/udp_ready_app.h"
#include "src/guest/guest_manager.h"

namespace nephele {
namespace {

class GuestTest : public ::testing::Test {
 protected:
  GuestTest() : system_(SmallSystem()), guests_(system_) {}

  static SystemConfig SmallSystem() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 128 * 1024;
    return cfg;
  }

  DomainConfig GuestConfig(const std::string& name) {
    DomainConfig cfg;
    cfg.name = name;
    cfg.max_clones = 16;
    return cfg;
  }

  // Launches a guest that counts its OnBoot calls in `boots` and destroys
  // its domain through the toolstack, not GuestManager::Destroy, before the
  // boot event. The runtime learns of the death from the destroy itself: the
  // guest is gone at once and its OnBoot never runs. (UdpReadyApp's OnBoot
  // sends through the vif frontend, which the destroy has already freed.)
  void DestroyThroughToolstackBeforeBoot(bool with_vif) {
    DomainConfig cfg = GuestConfig("a");
    cfg.with_vif = with_vif;
    int boots = 0;
    auto dom = guests_.Launch(cfg, std::make_unique<BootCountingApp>(&boots));
    ASSERT_TRUE(dom.ok());
    ASSERT_TRUE(system_.toolstack().DestroyDomain(*dom).ok());
    EXPECT_FALSE(guests_.Alive(*dom));
    EXPECT_EQ(guests_.NumGuests(), 0u);
    system_.Settle();
    EXPECT_EQ(boots, 0);
    EXPECT_EQ(guests_.Destroy(*dom).code(), StatusCode::kNotFound);
  }

  class BootCountingApp : public UdpReadyApp {
   public:
    explicit BootCountingApp(int* boots) : UdpReadyApp(UdpReadyConfig{}), boots_(boots) {}
    void OnBoot(GuestContext& ctx) override {
      ++*boots_;
      UdpReadyApp::OnBoot(ctx);
    }
    std::unique_ptr<GuestApp> CloneApp() const override {
      return std::make_unique<BootCountingApp>(boots_);
    }

   private:
    int* boots_;
  };

  NepheleSystem system_;
  GuestManager guests_;
};

// --- GuestArena ---

TEST_F(GuestTest, ArenaAllocatesAndTouchesPages) {
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  ASSERT_TRUE(dom.ok());
  system_.Settle();
  GuestContext* ctx = guests_.ContextOf(*dom);
  std::size_t free_bytes = ctx->arena().free_bytes();
  auto block = ctx->arena().Allocate(3 * kPageSize, /*resident=*/true);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(ctx->arena().allocated_bytes(), 3 * kPageSize);
  EXPECT_EQ(ctx->arena().free_bytes(), free_bytes - 3 * kPageSize);
  ASSERT_TRUE(ctx->arena().Free(*block).ok());
  EXPECT_EQ(ctx->arena().free_bytes(), free_bytes);
}

TEST_F(GuestTest, ArenaCoalescesFreedBlocks) {
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  GuestArena& arena = guests_.ContextOf(*dom)->arena();
  auto a = arena.Allocate(kPageSize, false);
  auto b = arena.Allocate(kPageSize, false);
  auto c = arena.Allocate(kPageSize, false);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(arena.Free(*a).ok());
  ASSERT_TRUE(arena.Free(*c).ok());
  ASSERT_TRUE(arena.Free(*b).ok());  // merges with both neighbours
  // One big block again: a full-capacity allocation succeeds.
  auto all = arena.Allocate(arena.capacity_bytes(), false);
  EXPECT_TRUE(all.ok());
}

TEST_F(GuestTest, ArenaExhaustionReported) {
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  GuestArena& arena = guests_.ContextOf(*dom)->arena();
  EXPECT_EQ(arena.Allocate(arena.capacity_bytes() + kPageSize, false).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(arena.Allocate(0, false).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GuestTest, ArenaReadWriteThroughGuestPages) {
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  GuestArena& arena = guests_.ContextOf(*dom)->arena();
  auto block = arena.Allocate(2 * kPageSize, true);
  ASSERT_TRUE(block.ok());
  std::uint32_t v = 0xDEADBEEF;
  ASSERT_TRUE(arena.Write(block->offset + kPageSize - 2, &v, sizeof(v)).ok());  // page-crossing
  std::uint32_t out = 0;
  ASSERT_TRUE(arena.Read(block->offset + kPageSize - 2, &out, sizeof(out)).ok());
  EXPECT_EQ(out, 0xDEADBEEF);
}

// --- MiniStack ---

TEST_F(GuestTest, UdpBindFiltersDelivery) {
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  MiniStack& stack = guests_.ContextOf(*dom)->net();
  int delivered = 0;
  stack.SetDeliveryHandler([&](const Packet&) { ++delivered; });
  Packet p;
  p.proto = IpProto::kUdp;
  p.dst_port = 7;  // UdpReadyApp bound 7
  stack.OnFrameReceived(p);
  p.dst_port = 9;  // nobody bound
  stack.OnFrameReceived(p);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(stack.packets_dropped(), 1u);
}

TEST_F(GuestTest, TcpSynEstablishesFlowAndReplies) {
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  GuestContext* ctx = guests_.ContextOf(*dom);
  ASSERT_TRUE(ctx->TcpListen(80).ok());
  MiniStack& stack = ctx->net();
  Packet syn;
  syn.proto = IpProto::kTcp;
  syn.tcp_flag = TcpFlag::kSyn;
  syn.src_ip = MakeIpv4(1, 2, 3, 4);
  syn.src_port = 5555;
  syn.dst_ip = ctx->ip();
  syn.dst_port = 80;
  stack.OnFrameReceived(syn);
  EXPECT_EQ(stack.established_flows(), 1u);
  Packet fin = syn;
  fin.tcp_flag = TcpFlag::kFin;
  stack.OnFrameReceived(fin);
  EXPECT_EQ(stack.established_flows(), 0u);
}

TEST_F(GuestTest, TcpDataToNonListeningPortDropped) {
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  MiniStack& stack = guests_.ContextOf(*dom)->net();
  Packet data;
  data.proto = IpProto::kTcp;
  data.dst_port = 81;
  stack.OnFrameReceived(data);
  EXPECT_EQ(stack.packets_dropped(), 1u);
}

// --- Boot / restore / fork plumbing ---

TEST_F(GuestTest, LaunchBootsAppAndSendsReady) {
  int ready = 0;
  system_.toolstack().default_switch()->set_uplink_sink([&](const Packet& p) {
    if (p.dst_port == 9999) {
      ++ready;
    }
  });
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  ASSERT_TRUE(dom.ok());
  system_.Settle();
  EXPECT_EQ(ready, 1);
  EXPECT_TRUE(guests_.Alive(*dom));
}

TEST_F(GuestTest, RestoreRunsOnBootAgain) {
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  auto image = system_.toolstack().SaveDomain(*dom);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(guests_.Destroy(*dom).ok());
  int ready = 0;
  system_.toolstack().default_switch()->set_uplink_sink([&](const Packet& p) {
    if (p.dst_port == 9999) {
      ++ready;
    }
  });
  auto restored = guests_.Restore(*image, std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  ASSERT_TRUE(restored.ok());
  system_.Settle();
  EXPECT_EQ(ready, 1);
}

TEST_F(GuestTest, ForkRunsContinuationOnBothSides) {
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  std::vector<std::pair<DomId, bool>> calls;
  ASSERT_TRUE(guests_.ContextOf(*dom)
                  ->Fork(2,
                         [&](GuestContext& ctx, GuestApp& self, const ForkResult& r) {
                           (void)self;
                           calls.push_back({ctx.id(), r.is_child});
                           if (!r.is_child) {
                             EXPECT_EQ(r.children.size(), 2u);
                           }
                         })
                  .ok());
  system_.Settle();
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_TRUE(calls[0].second);
  EXPECT_TRUE(calls[1].second);
  EXPECT_FALSE(calls[2].second);  // parent resumes last
  EXPECT_EQ(calls[2].first, *dom);
}

TEST_F(GuestTest, ChildInheritsAppStateSnapshot) {
  UdpReadyConfig app_cfg;
  app_cfg.src_port = 31337;
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(app_cfg));
  system_.Settle();
  DomId child_id = kDomInvalid;
  ASSERT_TRUE(guests_.ContextOf(*dom)
                  ->Fork(1,
                         [&](GuestContext& ctx, GuestApp& self, const ForkResult& r) {
                           if (r.is_child) {
                             child_id = ctx.id();
                             // The snapshot carries the parent's state.
                             EXPECT_EQ(static_cast<UdpReadyApp&>(self).config().src_port, 31337);
                           }
                         })
                  .ok());
  system_.Settle();
  ASSERT_NE(child_id, kDomInvalid);
  EXPECT_TRUE(guests_.Alive(child_id));
  auto* child_app = dynamic_cast<UdpReadyApp*>(guests_.AppOf(child_id));
  ASSERT_NE(child_app, nullptr);
  EXPECT_EQ(child_app->config().src_port, 31337);
}

TEST_F(GuestTest, ChildStackInheritsBindings) {
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  ASSERT_TRUE(guests_.ContextOf(*dom)->TcpListen(8080).ok());
  DomId child_id = kDomInvalid;
  ASSERT_TRUE(guests_.ContextOf(*dom)
                  ->Fork(1,
                         [&](GuestContext& ctx, GuestApp&, const ForkResult& r) {
                           if (r.is_child) {
                             child_id = ctx.id();
                           }
                         })
                  .ok());
  system_.Settle();
  GuestContext* child_ctx = guests_.ContextOf(child_id);
  ASSERT_NE(child_ctx, nullptr);
  EXPECT_TRUE(child_ctx->net().IsTcpListening(8080));
  EXPECT_TRUE(child_ctx->net().IsUdpBound(7));
}

TEST_F(GuestTest, ChildArenaOperatesOnChildPages) {
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  GuestContext* parent_ctx = guests_.ContextOf(*dom);
  auto block = parent_ctx->arena().Allocate(kPageSize, true);
  ASSERT_TRUE(block.ok());
  std::uint8_t tag = 0x5C;
  ASSERT_TRUE(parent_ctx->arena().Write(block->offset, &tag, 1).ok());

  DomId child_id = kDomInvalid;
  ASSERT_TRUE(parent_ctx
                  ->Fork(1,
                         [&](GuestContext& ctx, GuestApp&, const ForkResult& r) {
                           if (r.is_child) {
                             child_id = ctx.id();
                           }
                         })
                  .ok());
  system_.Settle();
  GuestContext* child_ctx = guests_.ContextOf(child_id);
  // The child sees the parent's heap contents (COW) ...
  std::uint8_t out = 0;
  ASSERT_TRUE(child_ctx->arena().Read(block->offset, &out, 1).ok());
  EXPECT_EQ(out, 0x5C);
  // ... and its writes do not leak back.
  std::uint8_t other = 0xA1;
  ASSERT_TRUE(child_ctx->arena().Write(block->offset, &other, 1).ok());
  ASSERT_TRUE(guests_.ContextOf(*dom)->arena().Read(block->offset, &out, 1).ok());
  EXPECT_EQ(out, 0x5C);
}

TEST_F(GuestTest, ConcurrentForkRejected) {
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  ASSERT_TRUE(guests_.ContextOf(*dom)->Fork(1, nullptr).ok());
  // Second fork before the first completes: rejected.
  EXPECT_EQ(guests_.ContextOf(*dom)->Fork(1, nullptr).code(),
            StatusCode::kFailedPrecondition);
  system_.Settle();
  // After settling it works again.
  EXPECT_TRUE(guests_.ContextOf(*dom)->Fork(1, nullptr).ok());
  system_.Settle();
}

TEST_F(GuestTest, ForkOfUnknownGuestFails) {
  EXPECT_EQ(guests_.Fork(404, 1, nullptr).code(), StatusCode::kNotFound);
}

TEST_F(GuestTest, DestroyRemovesGuestAndDomain) {
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  ASSERT_TRUE(guests_.Destroy(*dom).ok());
  EXPECT_FALSE(guests_.Alive(*dom));
  EXPECT_EQ(system_.hypervisor().FindDomain(*dom), nullptr);
  EXPECT_EQ(guests_.Destroy(*dom).code(), StatusCode::kNotFound);
}

TEST_F(GuestTest, ToolstackDestroyBeforeBootEndsTheGuest) {
  DestroyThroughToolstackBeforeBoot(/*with_vif=*/false);
}

TEST_F(GuestTest, ToolstackDestroyBeforeBootEndsTheGuestWithVif) {
  DestroyThroughToolstackBeforeBoot(/*with_vif=*/true);
}

TEST_F(GuestTest, GuestTimerRespectsLifetime) {
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  int fired = 0;
  guests_.ContextOf(*dom)->Post(SimDuration::Millis(5), [&](GuestContext&) { ++fired; });
  guests_.ContextOf(*dom)->Post(SimDuration::Millis(10), [&](GuestContext&) { ++fired; });
  // Destroy before the second timer: its callback must be skipped.
  system_.loop().RunUntil(system_.Now() + SimDuration::Millis(6));
  ASSERT_TRUE(guests_.Destroy(*dom).ok());
  system_.Settle();
  EXPECT_EQ(fired, 1);
}

TEST_F(GuestTest, ConsoleWriteVisibleToHost) {
  auto dom = guests_.Launch(GuestConfig("a"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  ASSERT_TRUE(guests_.ContextOf(*dom)->ConsoleWrite("hello host\n").ok());
  EXPECT_EQ(*system_.devices().console().Output(*dom), "hello host\n");
}

}  // namespace
}  // namespace nephele
