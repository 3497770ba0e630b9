// Randomized differential tests of the system's core invariants: every run
// compares the virtualization stack against a trivially-correct reference
// model under thousands of random operations.

#include <gtest/gtest.h>

#include <map>

#include "src/apps/udp_ready_app.h"
#include "src/guest/guest_manager.h"
#include "src/sim/rng.h"

namespace nephele {
namespace {

SystemConfig PropertyPool() {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 256 * 1024;
  return cfg;
}

DomainConfig PropertyGuest(const std::string& name) {
  DomainConfig cfg;
  cfg.name = name;
  cfg.memory_mb = 4;
  cfg.max_clones = 512;
  cfg.with_vif = false;
  return cfg;
}

// --- Property 1: COW isolation across a whole family, vs a reference map.
//
// A family of domains shares pages COW. The reference model is a per-domain
// byte map: after any interleaving of clones and writes, every domain must
// read exactly what the reference predicts — no write may ever leak to a
// relative, and unwritten bytes must equal the value inherited at clone
// time.

class FamilyCowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FamilyCowProperty, RandomClonesAndWrites) {
  NepheleSystem system(PropertyPool());
  GuestManager guests(system);
  auto root = guests.Launch(PropertyGuest("root"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  ASSERT_TRUE(root.ok());
  system.Settle();

  GuestMemoryLayout layout = ComputeGuestLayout(PropertyGuest("root"));
  const Gfn heap0 = static_cast<Gfn>(layout.heap_first_gfn);
  const int kSlots = 24;  // distinct (gfn, offset) cells we operate on

  // Reference: per-domain view of every cell.
  std::map<DomId, std::array<std::uint8_t, kSlots>> reference;
  reference[*root] = {};

  std::vector<DomId> family{*root};
  Rng rng(GetParam());

  for (int step = 0; step < 600; ++step) {
    if (rng.NextBool(0.12) && family.size() < 24) {
      // Clone a random family member.
      DomId parent = family[rng.NextBelow(family.size())];
      std::size_t before = family.size();
      ASSERT_TRUE(guests.ContextOf(parent)->Fork(1, nullptr).ok());
      system.Settle();
      DomId child = system.hypervisor().FindDomain(parent)->children.back();
      ASSERT_NE(child, kDomInvalid);
      family.push_back(child);
      reference[child] = reference[parent];  // inherits the parent's view
      ASSERT_EQ(family.size(), before + 1);
    } else {
      // Random write by a random member to a random cell.
      DomId writer = family[rng.NextBelow(family.size())];
      int slot = static_cast<int>(rng.NextBelow(kSlots));
      std::uint8_t value = static_cast<std::uint8_t>(rng.NextBelow(256));
      Gfn gfn = heap0 + static_cast<Gfn>(slot / 4);
      std::size_t offset = (static_cast<std::size_t>(slot) % 4) * 64;
      ASSERT_TRUE(system.hypervisor().WriteGuestPage(writer, gfn, offset, &value, 1).ok());
      reference[writer][static_cast<std::size_t>(slot)] = value;
    }
    // Spot-check three random (domain, cell) pairs every step.
    for (int check = 0; check < 3; ++check) {
      DomId dom = family[rng.NextBelow(family.size())];
      int slot = static_cast<int>(rng.NextBelow(kSlots));
      Gfn gfn = heap0 + static_cast<Gfn>(slot / 4);
      std::size_t offset = (static_cast<std::size_t>(slot) % 4) * 64;
      std::uint8_t got = 0;
      ASSERT_TRUE(system.hypervisor().ReadGuestPage(dom, gfn, offset, &got, 1).ok());
      ASSERT_EQ(got, reference[dom][static_cast<std::size_t>(slot)])
          << "dom" << dom << " slot " << slot << " step " << step;
    }
  }

  // Full final sweep over every domain and cell.
  for (DomId dom : family) {
    for (int slot = 0; slot < kSlots; ++slot) {
      Gfn gfn = heap0 + static_cast<Gfn>(slot / 4);
      std::size_t offset = (static_cast<std::size_t>(slot) % 4) * 64;
      std::uint8_t got = 0;
      ASSERT_TRUE(system.hypervisor().ReadGuestPage(dom, gfn, offset, &got, 1).ok());
      EXPECT_EQ(got, reference[dom][static_cast<std::size_t>(slot)]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FamilyCowProperty, ::testing::Values(101, 202, 303, 404, 505));

// --- Property 2: frame conservation under boot/clone/destroy churn.
//
// Whatever interleaving of boots, clones and destroys runs, the pool must
// balance exactly: free + allocated == total at every step, and destroying
// everything returns the pool to its starting level.

class ChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnProperty, PoolBalancesUnderChurn) {
  NepheleSystem system(PropertyPool());
  GuestManager guests(system);
  Rng rng(GetParam());
  std::size_t free_at_start = system.hypervisor().FreePoolFrames();

  std::vector<DomId> live;
  int created = 0;
  for (int step = 0; step < 120; ++step) {
    switch (rng.NextBelow(3)) {
      case 0: {  // boot
        auto dom = guests.Launch(PropertyGuest("churn-" + std::to_string(created++)),
                                 std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
        if (dom.ok()) {
          system.Settle();
          live.push_back(*dom);
        }
        break;
      }
      case 1: {  // clone a random live guest
        if (!live.empty()) {
          DomId parent = live[rng.NextBelow(live.size())];
          std::size_t before = system.hypervisor().FindDomain(parent)->children.size();
          if (guests.ContextOf(parent)->Fork(1, nullptr).ok()) {
            system.Settle();
            const auto& children = system.hypervisor().FindDomain(parent)->children;
            if (children.size() > before) {
              live.push_back(children.back());
            }
          }
        }
        break;
      }
      default: {  // destroy a random live guest
        if (!live.empty()) {
          std::size_t i = rng.NextBelow(live.size());
          // Destroying a guest whose children still exist re-parents them in
          // the hypervisor; the runtime handles each individually.
          (void)guests.Destroy(live[i]);
          system.Settle();
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      }
    }
    const FrameTable& frames = system.hypervisor().frames();
    ASSERT_EQ(frames.free_frames() + frames.allocated_frames(), frames.total_frames());
  }

  while (!live.empty()) {
    (void)guests.Destroy(live.back());
    live.pop_back();
    system.Settle();
  }
  EXPECT_EQ(system.hypervisor().FreePoolFrames(), free_at_start);
  EXPECT_EQ(system.hypervisor().frames().shared_frames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnProperty, ::testing::Values(11, 22, 33, 44));

// --- Property 3: clone chains (clone-of-clone-of-...) keep full ancestry
// and memory semantics at arbitrary depth.

class ChainProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChainProperty, DeepCloneChain) {
  NepheleSystem system(PropertyPool());
  GuestManager guests(system);
  auto root = guests.Launch(PropertyGuest("chain"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  ASSERT_TRUE(root.ok());
  system.Settle();
  GuestMemoryLayout layout = ComputeGuestLayout(PropertyGuest("chain"));
  Gfn gfn = static_cast<Gfn>(layout.heap_first_gfn);

  int depth = GetParam();
  DomId current = *root;
  for (int level = 0; level < depth; ++level) {
    // Each generation stamps its level before cloning; the clone inherits
    // every ancestor's stamp made before its creation.
    std::uint8_t stamp = static_cast<std::uint8_t>(level + 1);
    ASSERT_TRUE(system.hypervisor()
                    .WriteGuestPage(current, gfn + static_cast<Gfn>(level), 0, &stamp, 1)
                    .ok());
    ASSERT_TRUE(guests.ContextOf(current)->Fork(1, nullptr).ok());
    system.Settle();
    DomId child = system.hypervisor().FindDomain(current)->children.back();
    EXPECT_TRUE(system.hypervisor().IsDescendantOf(child, *root));
    EXPECT_EQ(system.hypervisor().FindDomain(child)->family_root, *root);
    current = child;
  }
  // The deepest clone sees all ancestor stamps.
  for (int level = 0; level < depth; ++level) {
    std::uint8_t got = 0;
    ASSERT_TRUE(system.hypervisor()
                    .ReadGuestPage(current, gfn + static_cast<Gfn>(level), 0, &got, 1)
                    .ok());
    EXPECT_EQ(got, static_cast<std::uint8_t>(level + 1)) << "level " << level;
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, ChainProperty, ::testing::Values(2, 4, 8, 16));

// --- Property 4: COW isolation survives random fault interleavings.
//
// Same reference model as property 1, but a seeded adversary keeps re-arming
// random fault points with random probability policies while the workload
// runs. Operations are allowed to fail — a failed clone must roll back (the
// child never joins the family, the reference is not updated), a failed
// write must not mutate — but the surviving family's memory must still match
// the reference byte for byte, and the frame pool must balance at every
// step.

class FaultInterleavingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultInterleavingProperty, CowModelHoldsUnderInjectedFaults) {
  NepheleSystem system(PropertyPool());
  GuestManager guests(system);
  auto root = guests.Launch(PropertyGuest("root"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  ASSERT_TRUE(root.ok());
  system.Settle();

  GuestMemoryLayout layout = ComputeGuestLayout(PropertyGuest("root"));
  const Gfn heap0 = static_cast<Gfn>(layout.heap_first_gfn);
  const int kSlots = 24;

  std::map<DomId, std::array<std::uint8_t, kSlots>> reference;
  reference[*root] = {};
  std::vector<DomId> family{*root};
  Rng rng(GetParam());
  const std::vector<std::string> points = system.fault_injector().PointNames();
  ASSERT_FALSE(points.empty());

  int clones_succeeded = 0;
  int faults_hit_paths = 0;
  for (int step = 0; step < 400; ++step) {
    // The adversary: occasionally rewire which faults are armed.
    if (rng.NextBool(0.15)) {
      system.fault_injector().DisarmAll();
      // Arm between one and three random points with a random policy.
      std::size_t n = 1 + rng.NextBelow(3);
      for (std::size_t i = 0; i < n; ++i) {
        const std::string& point = points[rng.NextBelow(points.size())];
        FaultSpec spec = rng.NextBool(0.5)
                             ? FaultSpec::NthHit(1 + rng.NextBelow(8))
                             : FaultSpec::WithProbability(0.2, rng.NextU64());
        ASSERT_TRUE(system.fault_injector().Arm(point, spec).ok());
      }
    }

    if (rng.NextBool(0.15) && family.size() < 24) {
      DomId parent = family[rng.NextBelow(family.size())];
      const std::size_t before = system.hypervisor().FindDomain(parent)->children.size();
      Status forked = guests.ContextOf(parent)->Fork(1, nullptr);
      system.Settle();
      if (forked.ok()) {
        // Stage 2 may still have aborted the child; it joined the family
        // only if the parent lists it.
        const auto& children = system.hypervisor().FindDomain(parent)->children;
        if (children.size() > before) {
          DomId child = children.back();
          family.push_back(child);
          reference[child] = reference[parent];
          ++clones_succeeded;
        } else {
          ++faults_hit_paths;
        }
      } else {
        ++faults_hit_paths;
      }
    } else {
      DomId writer = family[rng.NextBelow(family.size())];
      int slot = static_cast<int>(rng.NextBelow(kSlots));
      std::uint8_t value = static_cast<std::uint8_t>(rng.NextBelow(256));
      Gfn gfn = heap0 + static_cast<Gfn>(slot / 4);
      std::size_t offset = (static_cast<std::size_t>(slot) % 4) * 64;
      Status wrote = system.hypervisor().WriteGuestPage(writer, gfn, offset, &value, 1);
      if (wrote.ok()) {
        reference[writer][static_cast<std::size_t>(slot)] = value;
      } else {
        ++faults_hit_paths;
      }
    }

    // Pool conservation holds mid-fault, every step.
    const FrameTable& frames = system.hypervisor().frames();
    ASSERT_EQ(frames.free_frames() + frames.allocated_frames(), frames.total_frames());

    // Spot-check the reference model with faults disarmed so the reads
    // themselves cannot fail.
    if (step % 7 == 0) {
      system.fault_injector().DisarmAll();
      for (int check = 0; check < 3; ++check) {
        DomId dom = family[rng.NextBelow(family.size())];
        int slot = static_cast<int>(rng.NextBelow(kSlots));
        Gfn gfn = heap0 + static_cast<Gfn>(slot / 4);
        std::size_t offset = (static_cast<std::size_t>(slot) % 4) * 64;
        std::uint8_t got = 0;
        ASSERT_TRUE(system.hypervisor().ReadGuestPage(dom, gfn, offset, &got, 1).ok());
        ASSERT_EQ(got, reference[dom][static_cast<std::size_t>(slot)])
            << "dom" << dom << " slot " << slot << " step " << step;
      }
    }
  }

  // Final sweep, faults off.
  system.fault_injector().DisarmAll();
  for (DomId dom : family) {
    for (int slot = 0; slot < kSlots; ++slot) {
      Gfn gfn = heap0 + static_cast<Gfn>(slot / 4);
      std::size_t offset = (static_cast<std::size_t>(slot) % 4) * 64;
      std::uint8_t got = 0;
      ASSERT_TRUE(system.hypervisor().ReadGuestPage(dom, gfn, offset, &got, 1).ok());
      EXPECT_EQ(got, reference[dom][static_cast<std::size_t>(slot)]);
    }
  }
  // The run must have exercised both sides: some clones made it through,
  // and some operations were actually failed by the adversary.
  EXPECT_GT(clones_succeeded, 0) << "adversary too strong — property vacuous";
  EXPECT_GT(faults_hit_paths, 0) << "adversary too weak — property vacuous";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultInterleavingProperty,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005));

}  // namespace
}  // namespace nephele
