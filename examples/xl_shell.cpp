// xl_shell — an xl-like command-line front end over the toolstack and the
// cloning engine. Reads one command per line from stdin:
//
//   create <name> [mem_mb] [max_clones]   boot a UDP-server unikernel
//   clone <domid> [n]                     fork a guest n times
//   list                                  ps-style domain listing
//   info                                  pool / sharing statistics
//   save <domid>                          save to an in-memory image
//   restore <name>                        restore the image saved as <name>
//   destroy <domid>                       tear a guest down
//   pin <domid> <cpus>                    spread the family across cpus
//   console <domid>                       dump a guest's console output
//   help / quit
//
// Demo: echo -e "create web 8 4\nclone 1 2\nlist\ninfo" | ./examples/xl_shell

#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>

#include "src/apps/udp_ready_app.h"
#include "src/core/smp.h"
#include "src/guest/guest_manager.h"

using namespace nephele;

namespace {

const char kHelp[] =
    "commands: create <name> [mem_mb] [max_clones] | clone <domid> [n] | list | info |\n"
    "          save <domid> | restore <name> | destroy <domid> | pin <domid> <cpus> |\n"
    "          console <domid> | help | quit\n";

class XlShell {
 public:
  XlShell() : guests_(system_) {}

  bool Dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd.empty() || cmd[0] == '#') {
      return true;
    }
    if (cmd == "quit" || cmd == "exit") {
      return false;
    }
    if (cmd == "help") {
      std::fputs(kHelp, stdout);
    } else if (cmd == "create") {
      Create(in);
    } else if (cmd == "clone") {
      Clone(in);
    } else if (cmd == "list") {
      List();
    } else if (cmd == "info") {
      Info();
    } else if (cmd == "save") {
      Save(in);
    } else if (cmd == "restore") {
      Restore(in);
    } else if (cmd == "destroy") {
      Destroy(in);
    } else if (cmd == "pin") {
      Pin(in);
    } else if (cmd == "console") {
      Console(in);
    } else {
      std::printf("unknown command '%s'\n%s", cmd.c_str(), kHelp);
    }
    system_.Settle();
    return true;
  }

 private:
  void Create(std::istringstream& in) {
    DomainConfig cfg;
    std::size_t mem = 4;
    unsigned max_clones = 64;
    in >> cfg.name >> mem >> max_clones;
    if (cfg.name.empty()) {
      std::printf("usage: create <name> [mem_mb] [max_clones]\n");
      return;
    }
    cfg.memory_mb = mem;
    cfg.max_clones = max_clones;
    SimTime t0 = system_.Now();
    auto dom = guests_.Launch(cfg, std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
    system_.Settle();
    if (!dom.ok()) {
      std::printf("create failed: %s\n", dom.status().ToString().c_str());
      return;
    }
    std::printf("created dom%u '%s' in %.1f ms\n", *dom, cfg.name.c_str(),
                (system_.Now() - t0).ToMillis());
  }

  void Clone(std::istringstream& in) {
    unsigned domid = 0, n = 1;
    in >> domid >> n;
    GuestContext* ctx = guests_.ContextOf(static_cast<DomId>(domid));
    if (ctx == nullptr) {
      std::printf("no such guest dom%u\n", domid);
      return;
    }
    SimTime t0 = system_.Now();
    Status s = ctx->Fork(n, nullptr);
    system_.Settle();
    if (!s.ok()) {
      std::printf("clone failed: %s\n", s.ToString().c_str());
      return;
    }
    const Domain* d = system_.hypervisor().FindDomain(static_cast<DomId>(domid));
    std::printf("cloned dom%u -> ", domid);
    for (std::size_t i = d->children.size() - n; i < d->children.size(); ++i) {
      std::printf("dom%u ", d->children[i]);
    }
    std::printf("in %.1f ms\n", (system_.Now() - t0).ToMillis());
  }

  void List() {
    std::printf("%-6s %-22s %-8s %-8s %-8s %s\n", "domid", "name", "mem", "state", "parent",
                "clones");
    for (DomId id : system_.hypervisor().DomainIds()) {
      const Domain* d = system_.hypervisor().FindDomain(id);
      const char* state = d->state == DomainState::kRunning ? "running"
                          : d->IsPaused()                   ? "paused"
                                                            : "dying";
      char parent[16] = "-";
      if (d->parent != kDomInvalid) {
        std::snprintf(parent, sizeof(parent), "dom%u", d->parent);
      }
      std::printf("%-6u %-22s %-8zu %-8s %-8s %zu\n", id, d->name.c_str(),
                  d->tot_pages() * kPageSize / kMiB, state, parent, d->children.size());
    }
  }

  void Info() {
    Hypervisor& hv = system_.hypervisor();
    std::printf("pool: %zu / %zu MiB free\n", hv.FreePoolFrames() * kPageSize / kMiB,
                hv.TotalPoolFrames() * kPageSize / kMiB);
    std::printf("dom0: %zu MiB free\n", system_.toolstack().Dom0FreeBytes() / kMiB);
    std::printf("shared frames: %zu (%zu MiB saved by COW)\n", hv.frames().shared_frames(),
                hv.frames().frames_saved_by_sharing() * kPageSize / kMiB);
    std::printf("cow faults: %llu, clones: %llu, xenstore entries: %zu\n",
                static_cast<unsigned long long>(
                    system_.metrics().CounterValue("hypervisor/cow/faults")),
                static_cast<unsigned long long>(
                    system_.metrics().CounterValue("clone/clones_total")),
                system_.xenstore().NumEntries());
  }

  void Save(std::istringstream& in) {
    unsigned domid = 0;
    in >> domid;
    auto image = system_.toolstack().SaveDomain(static_cast<DomId>(domid));
    if (!image.ok()) {
      std::printf("save failed: %s\n", image.status().ToString().c_str());
      return;
    }
    images_[image->config.name] = *image;
    std::printf("saved dom%u as image '%s' (%zu pages)\n", domid, image->config.name.c_str(),
                image->pages);
  }

  void Restore(std::istringstream& in) {
    std::string name;
    in >> name;
    auto it = images_.find(name);
    if (it == images_.end()) {
      std::printf("no image '%s'\n", name.c_str());
      return;
    }
    auto dom = guests_.Restore(it->second, std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
    system_.Settle();
    if (!dom.ok()) {
      std::printf("restore failed: %s\n", dom.status().ToString().c_str());
      return;
    }
    std::printf("restored '%s' as dom%u\n", name.c_str(), *dom);
  }

  void Destroy(std::istringstream& in) {
    unsigned domid = 0;
    in >> domid;
    Status s = guests_.Destroy(static_cast<DomId>(domid));
    std::printf("%s\n", s.ok() ? "destroyed" : s.ToString().c_str());
  }

  void Pin(std::istringstream& in) {
    unsigned domid = 0;
    int cpus = 4;
    in >> domid >> cpus;
    auto pinned = PinFamilyAcrossCpus(system_.hypervisor(), static_cast<DomId>(domid), cpus);
    if (!pinned.ok()) {
      std::printf("pin failed: %s\n", pinned.status().ToString().c_str());
      return;
    }
    std::printf("pinned %zu family members across %d cpus\n", *pinned, cpus);
  }

  void Console(std::istringstream& in) {
    unsigned domid = 0;
    in >> domid;
    auto out = system_.devices().console().Output(static_cast<DomId>(domid));
    if (!out.ok()) {
      std::printf("no console for dom%u\n", domid);
      return;
    }
    std::printf("--- console dom%u ---\n%s\n", domid, out->c_str());
  }

  NepheleSystem system_;
  GuestManager guests_;
  std::map<std::string, DomainImage> images_;
};

}  // namespace

int main() {
  XlShell shell;
  std::string line;
  bool got_input = false;
  while (std::getline(std::cin, line)) {
    got_input = true;
    if (!shell.Dispatch(line)) {
      break;
    }
  }
  if (!got_input) {
    std::fputs(kHelp, stdout);
    // Self-demo when run without input.
    for (const char* cmd : {"create web 8 8", "clone 1 2", "list", "info"}) {
      std::printf("xl> %s\n", cmd);
      shell.Dispatch(cmd);
    }
  }
  return 0;
}
