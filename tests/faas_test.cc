#include <gtest/gtest.h>

#include <vector>

#include "src/faas/gateway.h"
#include "src/sched/scheduler.h"

namespace nephele {
namespace {

SystemConfig FaasSystem() {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 1024 * 1024;  // 4 GiB pool for 64 MiB guests
  return cfg;
}

TEST(ContainerBackend, ReadinessLatencies) {
  EventLoop loop;
  ContainerBackend backend(loop);
  ASSERT_TRUE(backend.Deploy().ok());
  EXPECT_EQ(backend.ScaleUp().code(), StatusCode::kOk);
  EXPECT_EQ(backend.ReadyInstances(), 0u);
  // Nothing is ready before the image pull completes (~33 s) — the early
  // scale-up cannot leapfrog it.
  loop.RunUntil(SimTime(SimDuration::Seconds(30).ns()));
  EXPECT_EQ(backend.ReadyInstances(), 0u);
  loop.RunUntil(SimTime(SimDuration::Seconds(40).ns()));
  EXPECT_EQ(backend.ReadyInstances(), 2u);
  ASSERT_EQ(backend.ReadinessTimes().size(), 2u);
  EXPECT_NEAR(backend.ReadinessTimes()[0], 33.0, 1.0);
}

TEST(ContainerBackend, MemoryStepsPerInstance) {
  EventLoop loop;
  ContainerBackend backend(loop);
  EXPECT_EQ(backend.MemoryBytes(), 0u);
  ASSERT_TRUE(backend.Deploy().ok());
  EXPECT_EQ(backend.MemoryBytes(), ContainerBackend::kFirstInstanceBytes);
  ASSERT_TRUE(backend.ScaleUp().ok());
  EXPECT_EQ(backend.MemoryBytes(),
            ContainerBackend::kFirstInstanceBytes + ContainerBackend::kInstanceBytes);
}

TEST(ContainerBackend, DeployTwiceRejected) {
  EventLoop loop;
  ContainerBackend backend(loop);
  ASSERT_TRUE(backend.Deploy().ok());
  EXPECT_EQ(backend.Deploy().code(), StatusCode::kFailedPrecondition);
}

TEST(UnikernelBackend, DeployBootsRealGuest) {
  NepheleSystem system(FaasSystem());
  GuestManager guests(system);
  (void)system.devices().hostfs().CreateFile("/srv/guest-root/python3");
  UnikernelBackend backend(guests);
  ASSERT_TRUE(backend.Deploy().ok());
  system.loop().RunUntil(system.Now() + SimDuration::Seconds(5));
  EXPECT_EQ(backend.ReadyInstances(), 1u);
  EXPECT_EQ(backend.TotalInstances(), 1u);
  // First instance: ~64 MiB VM + ~21 MiB services (Sec. 7.3: 85 MB).
  double mb = static_cast<double>(backend.MemoryBytes()) / (1 << 20);
  EXPECT_GT(mb, 70.0);
  EXPECT_LT(mb, 100.0);
}

TEST(UnikernelBackend, ScaleUpClonesCheaply) {
  NepheleSystem system(FaasSystem());
  GuestManager guests(system);
  (void)system.devices().hostfs().CreateFile("/srv/guest-root/python3");
  UnikernelBackend backend(guests);
  ASSERT_TRUE(backend.Deploy().ok());
  system.loop().RunUntil(system.Now() + SimDuration::Seconds(5));
  double first_mb = static_cast<double>(backend.MemoryBytes()) / (1 << 20);
  ASSERT_TRUE(backend.ScaleUp().ok());
  system.loop().RunUntil(system.Now() + SimDuration::Seconds(5));
  EXPECT_EQ(backend.ReadyInstances(), 2u);
  double per_clone_mb = static_cast<double>(backend.MemoryBytes()) / (1 << 20) - first_mb;
  // Sec. 7.3: "tens of megabytes (35 MB on average)" per additional
  // unikernel instance, vs hundreds for containers.
  EXPECT_GT(per_clone_mb, 20.0);
  EXPECT_LT(per_clone_mb, 60.0);
  // The clone is a real domain in the parent's family.
  ASSERT_EQ(backend.instances().size(), 2u);
  EXPECT_TRUE(system.hypervisor().IsDescendantOf(backend.instances()[1],
                                                 backend.instances()[0]));
}

// A unikernel backend scaling through the clone scheduler: ScaleDown parks
// the youngest instance in the warm pool, and the next ScaleUp may be
// served warm from it.
struct ScheduledUnikernels {
  ScheduledUnikernels()
      : system(FaasSystem()), guests(system), sched(system), backend(guests) {
    (void)system.devices().hostfs().CreateFile("/srv/guest-root/python3");
    backend.AttachScheduler(sched);
  }

  void RunFor(SimDuration d) { system.loop().RunUntil(system.Now() + d); }

  NepheleSystem system;
  GuestManager guests;
  CloneScheduler sched;
  UnikernelBackend backend;
};

TEST(UnikernelScaleDown, ParksTheYoungestAndNeverTheRoot) {
  ScheduledUnikernels u;
  ASSERT_TRUE(u.backend.Deploy().ok());
  u.RunFor(SimDuration::Seconds(5));
  const DomId root = u.backend.instances().front();
  EXPECT_EQ(u.backend.ScaleDown().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(u.backend.instances(), std::vector<DomId>{root});

  ASSERT_TRUE(u.backend.ScaleUp().ok());
  u.RunFor(SimDuration::Seconds(5));
  ASSERT_EQ(u.backend.TotalInstances(), 2u);
  ASSERT_EQ(u.backend.ReadyInstances(), 2u);
  const DomId child = u.backend.instances().back();
  ASSERT_TRUE(u.backend.ScaleDown().ok());
  EXPECT_EQ(u.backend.instances(), std::vector<DomId>{root});
  EXPECT_EQ(u.sched.WarmPoolSize(root), 1u);
  EXPECT_EQ(u.backend.ReadyInstances(), 1u);

  // The next scale-up is a warm hit on the parked child: no pod creation,
  // so it reports ready kWarmReportLatency after the scale-up.
  const std::uint64_t hits = u.system.metrics().CounterValue("sched/warm_hits");
  const double scaled_at = u.system.Now().ToSeconds();
  ASSERT_TRUE(u.backend.ScaleUp().ok());
  EXPECT_EQ(u.system.metrics().CounterValue("sched/warm_hits"), hits + 1);
  u.RunFor(SimDuration::Seconds(1));
  EXPECT_EQ(u.backend.instances(), (std::vector<DomId>{root, child}));
  EXPECT_EQ(u.backend.ReadyInstances(), 2u);
  ASSERT_EQ(u.backend.ReadinessTimes().size(), 3u);
  EXPECT_NEAR(u.backend.ReadinessTimes().back() - scaled_at,
              UnikernelBackend::kWarmReportLatency.ToSeconds(), 1e-6);
}

TEST(UnikernelScaleDown, NeedsAScheduler) {
  NepheleSystem system(FaasSystem());
  GuestManager guests(system);
  (void)system.devices().hostfs().CreateFile("/srv/guest-root/python3");
  UnikernelBackend backend(guests);
  ASSERT_TRUE(backend.Deploy().ok());
  ASSERT_TRUE(backend.ScaleUp().ok());
  system.loop().RunUntil(system.Now() + SimDuration::Seconds(5));
  ASSERT_EQ(backend.ReadyInstances(), 2u);
  EXPECT_EQ(backend.ScaleDown().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(backend.TotalInstances(), 2u);
  EXPECT_EQ(backend.ReadyInstances(), 2u);
}

// Scale-down past warm_pool_capacity evicts the least recently parked
// instance through the toolstack; its guest ends with its domain.
TEST(UnikernelScaleDown, EvictionPastCapacityEndsTheGuest) {
  SystemConfig cfg = FaasSystem();
  cfg.sched.warm_pool_capacity = 1;
  NepheleSystem system(cfg);
  GuestManager guests(system);
  CloneScheduler sched(system);
  (void)system.devices().hostfs().CreateFile("/srv/guest-root/python3");
  UnikernelBackend backend(guests);
  backend.AttachScheduler(sched);
  ASSERT_TRUE(backend.Deploy().ok());
  system.loop().RunUntil(system.Now() + SimDuration::Seconds(5));
  ASSERT_TRUE(backend.ScaleUp().ok());
  ASSERT_TRUE(backend.ScaleUp().ok());
  system.loop().RunUntil(system.Now() + SimDuration::Seconds(5));
  ASSERT_EQ(backend.TotalInstances(), 3u);
  const DomId root = backend.instances()[0];
  const DomId older = backend.instances()[1];
  const DomId younger = backend.instances()[2];

  ASSERT_TRUE(backend.ScaleDown().ok());  // parks `younger`
  ASSERT_TRUE(backend.ScaleDown().ok());  // parks `older`, evicting `younger`
  EXPECT_EQ(system.metrics().CounterValue("sched/evictions"), 1u);
  EXPECT_EQ(sched.WarmPoolSize(root), 1u);
  EXPECT_EQ(system.hypervisor().FindDomain(younger), nullptr);
  EXPECT_FALSE(guests.Alive(younger));
  EXPECT_TRUE(guests.Alive(older));
  EXPECT_EQ(guests.NumGuests(), 2u);
}

// Readiness counts once per grant: a report that lands after its instance
// was retired, or after a warm re-grant of the same domain, is stale.
TEST(UnikernelScaleDown, RetiringAnUnreportedInstanceKeepsTheReadyCount) {
  {
    // Retired before either report lands: only the root's report counts.
    ScheduledUnikernels u;
    ASSERT_TRUE(u.backend.Deploy().ok());
    u.RunFor(SimDuration::Millis(100));
    ASSERT_TRUE(u.backend.ScaleUp().ok());
    u.RunFor(SimDuration::Millis(500));
    ASSERT_EQ(u.backend.TotalInstances(), 2u);
    ASSERT_EQ(u.backend.ReadyInstances(), 0u);
    ASSERT_TRUE(u.backend.ScaleDown().ok());
    u.RunFor(SimDuration::Seconds(5));
    EXPECT_EQ(u.backend.TotalInstances(), 1u);
    EXPECT_EQ(u.backend.ReadyInstances(), 1u);
    EXPECT_EQ(u.backend.ReadinessTimes().size(), 1u);
  }
  {
    // The root serves; the child is retired before its cold report and
    // re-granted warm before that stale report lands.
    ScheduledUnikernels u;
    ASSERT_TRUE(u.backend.Deploy().ok());
    u.RunFor(SimDuration::Seconds(5));
    ASSERT_EQ(u.backend.ReadyInstances(), 1u);
    ASSERT_TRUE(u.backend.ScaleUp().ok());
    u.RunFor(SimDuration::Millis(500));
    ASSERT_EQ(u.backend.TotalInstances(), 2u);
    const DomId child = u.backend.instances().back();
    ASSERT_TRUE(u.backend.ScaleDown().ok());
    EXPECT_EQ(u.backend.ReadyInstances(), 1u);
    ASSERT_TRUE(u.backend.ScaleUp().ok());
    u.RunFor(SimDuration::Millis(500));
    ASSERT_EQ(u.backend.instances().back(), child);
    EXPECT_EQ(u.backend.ReadyInstances(), 2u);
    u.RunFor(SimDuration::Seconds(5));
    EXPECT_EQ(u.backend.ReadyInstances(), 2u);
    EXPECT_EQ(u.backend.ReadinessTimes().size(), 2u);
  }
}

TEST(Gateway, ScalesWhenLoadExceedsThreshold) {
  EventLoop loop;
  ContainerBackend backend(loop);
  GatewayConfig gcfg;
  gcfg.query_interval = SimDuration::Seconds(10);
  OpenFaasGateway gateway(loop, backend, gcfg);
  auto result = gateway.Run(SimDuration::Seconds(60), [](double) { return 60.0; });
  // 60 RPS demand / 10 RPS threshold: the autoscaler keeps adding instances.
  EXPECT_GT(backend.TotalInstances(), 3u);
  EXPECT_EQ(result.series.size(), 60u);
}

TEST(Gateway, NoScaleUnderThreshold) {
  EventLoop loop;
  ContainerBackend backend(loop);
  OpenFaasGateway gateway(loop, backend, GatewayConfig{});
  (void)gateway.Run(SimDuration::Seconds(60), [](double) { return 5.0; });
  EXPECT_EQ(backend.TotalInstances(), 1u);  // just the deployment
}

TEST(Gateway, MaxInstancesCap) {
  EventLoop loop;
  ContainerBackend backend(loop);
  GatewayConfig gcfg;
  gcfg.max_instances = 3;
  gcfg.query_interval = SimDuration::Seconds(5);
  OpenFaasGateway gateway(loop, backend, gcfg);
  (void)gateway.Run(SimDuration::Seconds(120), [](double) { return 1e6; });
  EXPECT_EQ(backend.TotalInstances(), 3u);
}

TEST(Gateway, ServedTracksCapacity) {
  EventLoop loop;
  ContainerBackend backend(loop);  // 600 requests/s per instance
  GatewayConfig gcfg;
  gcfg.max_instances = 1;  // isolate the capacity model from autoscaling
  OpenFaasGateway gateway(loop, backend, gcfg);
  auto result = gateway.Run(SimDuration::Seconds(40), [](double) { return 1000.0; });
  // Before the first instance is ready nothing is served; afterwards the
  // single instance saturates at its capacity.
  EXPECT_DOUBLE_EQ(result.series[10].served_rps, 0.0);
  EXPECT_DOUBLE_EQ(result.series.back().served_rps, 600.0);
}

TEST(Gateway, UnikernelsReactFasterThanContainers) {
  // The Fig. 11 headline: clones start serving much sooner.
  EventLoop closs;
  ContainerBackend containers(closs);
  OpenFaasGateway cgw(closs, containers, GatewayConfig{});
  auto cres = cgw.Run(SimDuration::Seconds(60), [](double) { return 1450.0; });

  NepheleSystem system(FaasSystem());
  GuestManager guests(system);
  (void)system.devices().hostfs().CreateFile("/srv/guest-root/python3");
  UnikernelBackend unikernels(guests);
  OpenFaasGateway ugw(system.loop(), unikernels, GatewayConfig{});
  auto ures = ugw.Run(SimDuration::Seconds(60), [](double) { return 1450.0; });

  ASSERT_FALSE(cres.readiness_times.empty());
  ASSERT_FALSE(ures.readiness_times.empty());
  EXPECT_LT(ures.readiness_times[0], 5.0);   // ~3 s
  EXPECT_GT(cres.readiness_times[0], 25.0);  // ~33 s
  // Cumulative served requests over the first minute favour unikernels.
  EXPECT_GT(ures.total_served, cres.total_served);
}

}  // namespace
}  // namespace nephele
