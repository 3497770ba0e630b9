// Negative-path sweep over every guest-reachable entry point: hypercalls,
// grants, event channels, xenstore, 9p and the clone ops. Hostile arguments
// (invalid domids, stale handles, boundary and overflowing sizes) must yield
// typed errors — never kInternal, an assert, a leak or corrupted hypervisor
// state. Every test re-checks the full invariant set from
// src/hypervisor/invariants.h and that the frame pool balance is untouched.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/devices/hostfs.h"
#include "src/devices/p9.h"
#include "src/hypervisor/invariants.h"
#include "src/xenstore/path.h"

namespace nephele {
namespace {

constexpr std::size_t kSizeMax = std::numeric_limits<std::size_t>::max();

class HostileApiTest : public ::testing::Test {
 protected:
  HostileApiTest() : system_(SmallSystem()) {
    system_.Settle();
    baseline_free_ = system_.hypervisor().FreePoolFrames();
  }

  static SystemConfig SmallSystem() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 64 * 1024;  // 256 MiB pool
    return cfg;
  }

  DomId Boot(std::uint32_t max_clones = 32) {
    DomainConfig cfg;
    cfg.name = "hostile";
    cfg.memory_mb = 4;
    cfg.max_clones = max_clones;
    auto dom = system_.toolstack().CreateDomain(cfg);
    EXPECT_TRUE(dom.ok()) << dom.status().ToString();
    system_.Settle();
    return *dom;
  }

  Mfn StartInfoMfn(DomId dom) {
    const Domain* d = system_.hypervisor().FindDomain(dom);
    return d->p2m[d->start_info_gfn].mfn;
  }

  std::size_t P2mSize(DomId dom) {
    return system_.hypervisor().FindDomain(dom)->p2m.size();
  }

  void ExpectClean() {
    EXPECT_EQ(CheckHypervisorInvariants(system_.hypervisor()), "");
  }

  void ExpectPoolBalanced(std::size_t want_free) {
    EXPECT_EQ(system_.hypervisor().FreePoolFrames(), want_free);
  }

  NepheleSystem system_;
  std::size_t baseline_free_ = 0;
};

TEST_F(HostileApiTest, GuestAccessRejectsOverflowingRanges) {
  DomId dom = Boot();
  const std::size_t free_before = system_.hypervisor().FreePoolFrames();
  std::uint8_t byte = 0;
  Hypervisor& hv = system_.hypervisor();

  // Boundary sizes: the full page is legal, one byte past is not, and
  // offset+len combinations that wrap size_t must not reach the copy.
  std::vector<std::uint8_t> page(kPageSize, 0);
  EXPECT_TRUE(hv.WriteGuestPage(dom, 500, 0, page.data(), kPageSize).ok());
  EXPECT_EQ(hv.WriteGuestPage(dom, 500, 1, page.data(), kPageSize).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(hv.WriteGuestPage(dom, 500, kPageSize, &byte, 1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(hv.WriteGuestPage(dom, 500, kSizeMax - 1, &byte, 2).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(hv.WriteGuestPage(dom, 500, 2, &byte, kSizeMax - 1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(hv.ReadGuestPage(dom, 500, kSizeMax, &byte, 1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(hv.ReadGuestPage(dom, 500, 4095, &byte, 2).code(), StatusCode::kOutOfRange);

  // Out-of-p2m gfns.
  EXPECT_EQ(hv.WriteGuestPage(dom, static_cast<Gfn>(P2mSize(dom)), 0, &byte, 1).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(hv.ReadGuestPage(dom, 0xFFFFFFF0u, 0, &byte, 1).code(), StatusCode::kOutOfRange);

  ExpectClean();
  ExpectPoolBalanced(free_before);
}

TEST_F(HostileApiTest, GuestAccessRejectsInvalidDomains) {
  std::uint8_t byte = 7;
  Hypervisor& hv = system_.hypervisor();
  EXPECT_EQ(hv.WriteGuestPage(4242, 0, 0, &byte, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(hv.ReadGuestPage(kDomChild, 0, 0, &byte, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(hv.TouchGuestPages(kDomInvalid, 0, 1).code(), StatusCode::kNotFound);

  DomId dom = Boot();
  EXPECT_TRUE(system_.toolstack().DestroyDomain(dom).ok());
  system_.Settle();
  EXPECT_EQ(hv.WriteGuestPage(dom, 0, 0, &byte, 1).code(), StatusCode::kNotFound);
  ExpectClean();
  ExpectPoolBalanced(baseline_free_);
}

TEST_F(HostileApiTest, TouchAndCowRejectWrapAroundRanges) {
  DomId dom = Boot();
  Hypervisor& hv = system_.hypervisor();

  EXPECT_EQ(hv.TouchGuestPages(dom, 0xFFFFFFF0u, 1024).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(hv.TouchGuestPages(dom, 0, kSizeMax).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(hv.TouchGuestPages(dom, static_cast<Gfn>(P2mSize(dom)), 1).code(),
            StatusCode::kOutOfRange);
  // The empty range at the very end is legal (STL-style half-open bounds).
  EXPECT_TRUE(hv.TouchGuestPages(dom, static_cast<Gfn>(P2mSize(dom)), 0).ok());

  DomId other = Boot();
  const std::size_t free_after_boots = system_.hypervisor().FreePoolFrames();
  CloneEngine& ce = system_.clone_engine();
  EXPECT_EQ(ce.CloneCow(kDom0, dom, 0xFFFFFFF0u, 1024).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ce.CloneCow(kDom0, dom, 0, kSizeMax).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ce.CloneCow(kDom0, 4242, 0, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(ce.CloneCow(other, dom, 0, 1).code(), StatusCode::kPermissionDenied);

  ExpectClean();
  ExpectPoolBalanced(free_after_boots);  // every rejected range left the pool alone
}

TEST_F(HostileApiTest, GrantEntryPointsRejectStaleAndForeignHandles) {
  DomId granter = Boot();
  DomId mapper = Boot();
  DomId stranger = Boot();
  const std::size_t free_before = system_.hypervisor().FreePoolFrames();
  Hypervisor& hv = system_.hypervisor();

  // Hostile creation.
  EXPECT_EQ(hv.GrantAccess(4242, mapper, 400, false).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(hv.GrantAccess(granter, mapper, static_cast<Gfn>(P2mSize(granter)), false).status().code(),
            StatusCode::kOutOfRange);

  auto ref = hv.GrantAccess(granter, mapper, 400, false);
  ASSERT_TRUE(ref.ok());

  // Hostile mapping: wrong grantee, dead mapper, bogus refs.
  EXPECT_EQ(hv.MapGrant(stranger, granter, *ref).status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(hv.MapGrant(mapper, granter, *ref + 1000).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(hv.MapGrant(mapper, 4242, *ref).status().code(), StatusCode::kNotFound);
  DomId doomed = Boot();
  auto ref2 = hv.GrantAccess(granter, doomed, 401, false);
  ASSERT_TRUE(ref2.ok());
  EXPECT_TRUE(system_.toolstack().DestroyDomain(doomed).ok());
  system_.Settle();
  EXPECT_EQ(hv.MapGrant(doomed, granter, *ref2).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(hv.EndGrantAccess(granter, *ref2).ok());

  // A mapping held by `mapper` survives a foreign unmap attempt.
  ASSERT_TRUE(hv.MapGrant(mapper, granter, *ref).ok());
  EXPECT_EQ(hv.UnmapGrant(stranger, granter, *ref).code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(hv.UnmapGrant(kDom0, granter, *ref).code(), StatusCode::kPermissionDenied);
  // Revoking while mapped is a typed precondition failure, and a stranger
  // cannot revoke at all (their table has no such ref).
  EXPECT_EQ(hv.EndGrantAccess(granter, *ref).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(hv.EndGrantAccess(stranger, *ref).code(), StatusCode::kNotFound);
  // The legitimate mapper still holds a working mapping.
  EXPECT_TRUE(hv.UnmapGrant(mapper, granter, *ref).ok());
  EXPECT_EQ(hv.UnmapGrant(mapper, granter, *ref).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(hv.EndGrantAccess(granter, *ref).ok());
  EXPECT_EQ(hv.EndGrantAccess(granter, *ref).code(), StatusCode::kNotFound);

  ExpectClean();
  ExpectPoolBalanced(free_before);
}

TEST_F(HostileApiTest, DestroyScrubsGrantsAndBalancesPool) {
  DomId a = Boot();
  DomId b = Boot();
  Hypervisor& hv = system_.hypervisor();
  auto ref = hv.GrantAccess(a, b, 400, false);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(hv.MapGrant(b, a, *ref).ok());
  auto back = hv.GrantAccess(b, a, 400, true);
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(hv.MapGrant(a, b, *back).ok());

  // Killing the mapper must not leave the granter's entry claiming a live
  // mapping; killing the granter must not leave b holding a dangling map.
  EXPECT_TRUE(system_.toolstack().DestroyDomain(b).ok());
  system_.Settle();
  ExpectClean();
  EXPECT_TRUE(hv.EndGrantAccess(a, *ref).ok());  // map_count was scrubbed
  EXPECT_TRUE(system_.toolstack().DestroyDomain(a).ok());
  system_.Settle();
  ExpectClean();
  ExpectPoolBalanced(baseline_free_);
}

TEST_F(HostileApiTest, DestroyDomainGuards) {
  EXPECT_EQ(system_.hypervisor().DestroyDomain(kDom0).code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(system_.hypervisor().DestroyDomain(4242).code(), StatusCode::kNotFound);
  EXPECT_EQ(system_.hypervisor().DestroyDomain(kDomChild).code(), StatusCode::kNotFound);
  DomId dom = Boot();
  EXPECT_TRUE(system_.toolstack().DestroyDomain(dom).ok());
  system_.Settle();
  EXPECT_EQ(system_.toolstack().DestroyDomain(dom).code(), StatusCode::kNotFound);
  ExpectClean();
  ExpectPoolBalanced(baseline_free_);
}

TEST_F(HostileApiTest, EvtchnEntryPointsRejectHostileCalls) {
  DomId a = Boot();
  DomId b = Boot();
  Hypervisor& hv = system_.hypervisor();

  EXPECT_EQ(hv.EvtchnAllocUnbound(4242, a).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(hv.EvtchnBindInterdomain(a, b, 9999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(hv.EvtchnBindInterdomain(a, 4242, 1).status().code(), StatusCode::kNotFound);

  auto unbound = hv.EvtchnAllocUnbound(a, b);
  ASSERT_TRUE(unbound.ok());
  // Reserved for b: a third party may not bind it.
  DomId c = Boot();
  EXPECT_EQ(hv.EvtchnBindInterdomain(c, a, *unbound).status().code(),
            StatusCode::kPermissionDenied);
  // Sending on a not-yet-connected port is a precondition failure.
  EXPECT_EQ(hv.EvtchnSend(a, *unbound).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(hv.EvtchnSend(a, 9999).code(), StatusCode::kNotFound);
  EXPECT_EQ(hv.EvtchnSend(4242, 1).code(), StatusCode::kNotFound);

  auto bport = hv.EvtchnBindInterdomain(b, a, *unbound);
  ASSERT_TRUE(bport.ok());
  // Re-binding an already-connected remote port must fail cleanly.
  EXPECT_EQ(hv.EvtchnBindInterdomain(c, a, *unbound).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(hv.EvtchnSend(a, *unbound).ok());
  system_.Settle();

  // Destroying one side scrubs the peer: the survivor's send is typed, the
  // invariant sweep sees no dangling connection.
  EXPECT_TRUE(system_.toolstack().DestroyDomain(b).ok());
  system_.Settle();
  ExpectClean();
  EXPECT_EQ(hv.EvtchnSend(a, *unbound).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(hv.EvtchnClose(a, *unbound).ok());
  EXPECT_EQ(hv.EvtchnClose(a, *unbound).code(), StatusCode::kNotFound);
  EXPECT_EQ(hv.EvtchnClose(4242, 1).code(), StatusCode::kNotFound);

  system_.Settle();
  ExpectClean();
  // Tear everything down: nothing the hostile sweep did may leak a frame.
  EXPECT_TRUE(system_.toolstack().DestroyDomain(c).ok());
  EXPECT_TRUE(system_.toolstack().DestroyDomain(a).ok());
  system_.Settle();
  ExpectClean();
  ExpectPoolBalanced(baseline_free_);
}

TEST_F(HostileApiTest, XenstoreRejectsHostileWrites) {
  DomId dom = Boot();
  XenstoreDaemon& xs = system_.xenstore();
  const std::string base = XsDomainPath(dom) + "/data";

  EXPECT_EQ(xs.Write(base + "/" + std::string(300, 'k'), "v").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(xs.Write(base + "/../../0/data/escape", "v").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(xs.Write(base + "/./x", "v").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(xs.Write(base + "/ok", std::string(5000, 'x')).code(), StatusCode::kInvalidArgument);
  std::string deep = base;
  for (int i = 0; i < 600; ++i) {
    deep += "/d";
  }
  EXPECT_EQ(xs.Write(deep, "v").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(xs.Mkdir(base + "/../../oops").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(xs.Rm(XsDomainPath(dom) + "/..").code(), StatusCode::kInvalidArgument);

  // None of the rejects landed anywhere, and sane writes still work.
  EXPECT_FALSE(xs.Exists("/local/domain/0/data/escape"));
  EXPECT_TRUE(xs.Write(base + "/ok", "v").ok());
  ExpectClean();
}

TEST_F(HostileApiTest, P9RejectsEscapesAndBadFids) {
  DomId dom = Boot();
  HostFs fs;
  ASSERT_TRUE(fs.CreateFile("/srv/hostile/file").ok());
  P9BackendProcess p9(system_.loop(), system_.costs(), fs, "/srv/hostile");

  EXPECT_EQ(p9.Walk(dom, 1, "x").status().code(), StatusCode::kNotFound);  // not attached
  auto root = p9.Attach(dom);
  ASSERT_TRUE(root.ok());

  EXPECT_EQ(p9.Walk(dom, *root, "..").status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(p9.Walk(dom, *root, "a/../../b").status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(p9.Walk(dom, *root, ".").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p9.Create(dom, *root, "..").status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(p9.Create(dom, *root, "a/b").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p9.Create(dom, *root, ".").status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(p9.Open(dom, 9999, false).code(), StatusCode::kNotFound);
  EXPECT_EQ(p9.Read(dom, 9999, 0, 16).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(p9.Clunk(dom, 9999).code(), StatusCode::kNotFound);

  // The legitimate path still works after the hostile sweep.
  auto fid = p9.Walk(dom, *root, "file");
  ASSERT_TRUE(fid.ok());
  EXPECT_TRUE(p9.Open(dom, *fid, false).ok());
  system_.Settle();
  ExpectClean();
}

TEST_F(HostileApiTest, CloneOpsRejectHostileRequests) {
  DomId parent = Boot();
  DomId stranger = Boot();
  const std::size_t free_before = system_.hypervisor().FreePoolFrames();
  CloneEngine& ce = system_.clone_engine();

  EXPECT_EQ(ce.Clone({stranger, parent, StartInfoMfn(parent), 1}).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(ce.Clone({kDomInvalid, parent, StartInfoMfn(parent), 1}).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(ce.Clone({kDom0, 4242, 0, 1}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ce.Clone({parent, parent, static_cast<Mfn>(0xDEADBEEF), 1}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ce.Clone({parent, parent, StartInfoMfn(parent), 0}).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(ce.CloneReset(kDom0, parent).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ce.CloneReset(kDom0, 4242).status().code(), StatusCode::kNotFound);

  auto child = ce.Clone({parent, parent, StartInfoMfn(parent), 1});
  ASSERT_TRUE(child.ok());
  system_.Settle();
  EXPECT_EQ(ce.CloneReset(stranger, child->front()).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(ce.CloneReset(kDom0, child->front()).ok());
  system_.Settle();

  EXPECT_TRUE(system_.toolstack().DestroyDomain(child->front()).ok());
  system_.Settle();
  ExpectClean();
  ExpectPoolBalanced(free_before);
}

TEST_F(HostileApiTest, MigrateOutOfFamilyLinkedDomainNamesTheBlockingRelatives) {
  DomId parent = Boot();
  auto children = system_.clone_engine().Clone({kDom0, parent, StartInfoMfn(parent), 2});
  ASSERT_TRUE(children.ok());
  system_.Settle();
  const std::size_t free_before = system_.hypervisor().FreePoolFrames();

  // The parent of living clones must not emigrate: CoW-shared frames would
  // dangle. The refusal is typed and names every blocking relative.
  Status refused = system_.toolstack().BeginMigrateOut(parent).status();
  ASSERT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  const std::string parent_msg(refused.message());
  for (DomId child : *children) {
    EXPECT_NE(parent_msg.find("domid " + std::to_string(child)), std::string::npos)
        << parent_msg;
  }
  EXPECT_NE(parent_msg.find("children"), std::string::npos) << parent_msg;

  // Same for a child, which names its parent.
  Status child_refused = system_.toolstack().BeginMigrateOut(children->front()).status();
  ASSERT_EQ(child_refused.code(), StatusCode::kFailedPrecondition);
  const std::string child_msg(child_refused.message());
  EXPECT_NE(child_msg.find("hostile"), std::string::npos) << child_msg;
  EXPECT_NE(child_msg.find("domid " + std::to_string(parent)), std::string::npos)
      << child_msg;

  // Nothing was left pending: the whole family is still running and the
  // pool untouched.
  EXPECT_EQ(system_.hypervisor().FindDomain(parent)->state, DomainState::kRunning);
  for (DomId child : *children) {
    EXPECT_NE(system_.hypervisor().FindDomain(child), nullptr);
  }
  ExpectClean();
  ExpectPoolBalanced(free_before);

  // Once the family is gone the same domain emigrates cleanly.
  for (DomId child : *children) {
    EXPECT_TRUE(system_.toolstack().DestroyDomain(child).ok());
  }
  system_.Settle();
  auto stream = system_.toolstack().BeginMigrateOut(parent);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_TRUE(system_.toolstack().AbortMigrateOut(parent).ok());
  ExpectClean();
}

}  // namespace
}  // namespace nephele
