#include "src/dst/harness.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>

#include "src/core/system.h"
#include "src/hypervisor/invariants.h"

namespace nephele {

std::uint64_t Hash64(std::string_view data, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

Result<std::uint64_t> ParseU64(std::string_view text) {
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return ErrInvalidArgument("bad integer: " + std::string(text));
  }
  return value;
}

Status ReadFields(const std::vector<std::string>& operands,
                  std::initializer_list<CodecKey> keys) {
  for (const std::string& operand : operands) {
    const std::size_t eq = operand.find('=');
    if (eq == std::string::npos) {
      return ErrInvalidArgument("operand without '=': " + operand);
    }
    const std::string_view name = std::string_view(operand).substr(0, eq);
    const auto* key =
        std::find_if(keys.begin(), keys.end(), [name](const auto& k) { return k.name == name; });
    if (key == keys.end()) {
      return ErrInvalidArgument("unknown key '" + std::string(name) + "'");
    }
    const std::string value = operand.substr(eq + 1);
    if (auto* text = std::get_if<std::string*>(&key->field)) {
      **text = value;
    } else if (auto* real = std::get_if<double*>(&key->field)) {
      // std::from_chars<double> is still spotty across libstdc++ versions in
      // minor modes; strtod is equivalent here.
      char* end = nullptr;
      **real = std::strtod(value.c_str(), &end);
      if (value.empty() || end != value.c_str() + value.size()) {
        return ErrInvalidArgument("bad float: " + value);
      }
    } else {
      NEPHELE_ASSIGN_OR_RETURN(std::uint64_t v, ParseU64(value));
      if (auto* narrow = std::get_if<std::uint32_t*>(&key->field)) {
        **narrow = static_cast<std::uint32_t>(v);
      } else {
        *std::get<std::uint64_t*>(key->field) = v;
      }
    }
  }
  return Status::Ok();
}

Status ForEachCodecLine(const std::string& text, const CodecLineFn& fn) {
  std::istringstream lines(text);
  std::string line;
  for (int line_no = 1; std::getline(lines, line); ++line_no) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream tokens(line);
    std::string head;
    tokens >> head;
    std::vector<std::string> operands;
    for (std::string operand; tokens >> operand;) {
      operands.push_back(std::move(operand));
    }
    if (Status status = fn(head, operands); !status.ok()) {
      return Status(status.code(),
                    "line " + std::to_string(line_no) + ": " + std::string(status.message()));
    }
  }
  return Status::Ok();
}

DomainConfig HarnessGuestConfig(std::string name) {
  DomainConfig cfg;
  cfg.name = std::move(name);
  cfg.memory_mb = 4;
  cfg.max_clones = 512;
  cfg.with_vif = true;
  return cfg;
}

ByteTape::ByteTape(std::uint64_t seed, std::uint64_t salt, const std::vector<std::uint8_t>& bytes)
    : bytes_(bytes),
      fallback_(Hash64(std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()),
                       seed ^ salt)) {}

std::uint8_t ByteTape::Byte() {
  if (pos_ < bytes_.size()) {
    return bytes_[pos_++];
  }
  return static_cast<std::uint8_t>(fallback_.NextU64());
}

Harness::Harness(const RunOptions& options, std::size_t num_ops, std::string guest_name,
                 std::string_view edge_salt)
    : options_(options),
      guest_(HarnessGuestConfig(std::move(guest_name))),
      num_ops_(num_ops),
      edge_seed_(Hash64(edge_salt) * 31) {}

Harness::~Harness() = default;

RunResult Harness::Run() {
  SystemConfig config;
  config.clone_worker_threads = options_.force_workers != 0 ? options_.force_workers : 1;
  // Manual streaming: the prefetcher never self-schedules, so lazy children
  // stay partially mapped until an op moves them along. max_hot_pages = 0
  // keeps the tracked heap pages out of the hot set, so demand-fault ops
  // reliably find not-present targets.
  config.lazy_clone.auto_stream = false;
  config.lazy_clone.max_hot_pages = 0;
  Configure(config);
  sys_ = std::make_unique<Host>(config);
  AddServices();
  Settle();
  initial_free_ = sys_->hypervisor().FreePoolFrames();
  GuestMemoryLayout layout = ComputeGuestLayout(guest_);
  heap0_ = static_cast<Gfn>(layout.heap_first_gfn);
  guest_pages_ = layout.total_pages;

  for (std::size_t i = 0; i < num_ops_; ++i) {
    cur_op_ = i;
    edge_code_ = 0;
    log_ << i << ' ' << OpName(i);
    ExecuteOp(i);
    log_ << '\n';
    ++result_.ops_executed;
    CoverageEdges(OpKindIndex(i));
    if (options_.after_op) {
      options_.after_op(*sys_, OpName(i), i);
    }
    RunOracle();
    if (!result_.ok()) {
      result_.digest = log_.str();
      return std::move(result_);
    }
  }

  // Teardown: everything down in reverse creation order; the pool must
  // return to its boot level (absolute frame conservation).
  cur_op_ = num_ops_;
  BeforeTeardown();
  std::vector<DomId> doomed(live_.rbegin(), live_.rend());
  for (DomId dom : doomed) {
    log_ << "teardown " << dom;
    TeardownDomain(dom);
    log_ << '\n';
  }
  RunOracle();
  if (result_.ok() && !live_.empty()) {
    Fail("teardown", "teardown left " + std::to_string(live_.size()) + " domains alive");
  }
  if (result_.ok() && sys_->hypervisor().FreePoolFrames() != initial_free_) {
    Fail("teardown", "pool did not return to boot level: free=" +
                         std::to_string(sys_->hypervisor().FreePoolFrames()) + " vs initial " +
                         std::to_string(initial_free_));
  }

  log_ << "metrics " << Hash64(sys_->metrics().ExportJson()) << '\n';
  log_ << "trace " << Hash64(sys_->trace().ExportJson()) << '\n';
  log_ << "simtime " << sys_->Now().ns() << '\n';
  result_.digest = log_.str();
  return std::move(result_);
}

void Harness::RunOracle() {
  if (!result_.ok() || unsettled_) {
    // Mid-flight windows are not quiesced; invariants are only guaranteed
    // at settled points and are checked at the next one.
    return;
  }
  // Every layer is evaluated before the first failure is reported; checks
  // are side-effect-free reads (the model layers may re-baseline their own
  // expectations).
  const Hypervisor& hv = sys_->hypervisor();
  std::vector<Check> checks = {
      {"frames", CheckFrameInvariants(hv)},
      {"p2m", CheckP2mInvariants(hv)},
      {"grants", CheckGrantInvariants(hv)},
      {"evtchns", CheckEvtchnInvariants(hv)},
  };
  for (Check& check : ModelChecks()) {
    checks.push_back(std::move(check));
  }
  for (Check& check : checks) {
    if (!check.message.empty()) {
      Fail(check.kind, std::move(check.message));
      return;
    }
  }
}

void Harness::CoverageEdges(std::uint32_t kind) {
  const auto code = static_cast<std::uint32_t>(edge_code_);
  Edge(static_cast<std::uint32_t>(edge_seed_ + kind * 17 + code));
  Edge((prev_kind_ * 41 + kind) * 13 + code);
  const auto live_bucket = static_cast<std::uint32_t>(std::min<std::size_t>(live_.size(), 7));
  Edge(kind * 257 + live_bucket * 29 + (faults_armed_ ? 7919 : 0));
  prev_kind_ = kind;
}

void Harness::Fail(std::string kind, std::string message) {
  if (result_.ok()) {
    result_.fail_kind = std::move(kind);
    result_.fail_op = cur_op_;
    result_.message = std::move(message);
  }
}

void Harness::Settle() {
  sys_->Settle();
  unsettled_ = false;
}

void Harness::Forget(DomId dom) {
  live_.erase(std::remove(live_.begin(), live_.end(), dom), live_.end());
  dead_.push_back(dom);
}

Mfn Harness::StartInfoMfn(DomId dom) const {
  const Domain* d = sys_->hypervisor().FindDomain(dom);
  if (d == nullptr || d->start_info_gfn == kInvalidGfn || d->start_info_gfn >= d->p2m.size()) {
    return kInvalidMfn;
  }
  return d->p2m[d->start_info_gfn].mfn;
}

std::string Harness::CheckCell(DomId dom, std::uint32_t slot, Gfn gfn, std::size_t offset,
                               std::uint8_t want) const {
  std::uint8_t got = 0;
  Status status = sys_->hypervisor().ReadGuestPage(dom, gfn, offset, &got, 1);
  if (!status.ok()) {
    return "cell read failed for dom " + std::to_string(dom) + ": " + status.ToString();
  }
  if (got != want) {
    return "COW isolation violated: dom " + std::to_string(dom) + " slot " +
           std::to_string(slot) + " reads " + std::to_string(got) + ", model says " +
           std::to_string(want);
  }
  return "";
}

void Harness::Record(const Status& status) {
  log_ << ' ' << static_cast<int>(status.code());
  OnStatus(status);
}

Result<DomId> Harness::Launch() {
  auto dom = sys_->toolstack().CreateDomain(guest_);
  Settle();
  Record(dom.status());
  if (dom.ok()) {
    log_ << " dom=" << *dom;
    live_.push_back(*dom);
  }
  return dom;
}

std::vector<DomId> Harness::AdoptChildren(const std::vector<DomId>& children) {
  std::vector<DomId> born;
  for (DomId child : children) {
    if (sys_->hypervisor().FindDomain(child) != nullptr) {
      live_.push_back(child);
      born.push_back(child);
      log_ << " c" << child;
    } else {
      // The second stage failed; its abort path already destroyed the child.
      dead_.push_back(child);
      log_ << " a" << child;
    }
  }
  return born;
}

void Harness::ArmFault(const std::string& point, const FaultSpec& spec) {
  Status status = sys_->fault_injector().Arm(point, spec);
  Record(status);
  log_ << ' ' << point;
  if (status.ok()) {
    faults_armed_ = true;
  }
}

void Harness::DisarmFaults() {
  sys_->fault_injector().DisarmAll();
  faults_armed_ = false;
}

void Harness::AdvanceTime(std::uint64_t ns) {
  sys_->loop().AdvanceBy(
      SimDuration::Nanos(static_cast<std::int64_t>(std::min<std::uint64_t>(ns, 1'000'000'000ULL))));
}

}  // namespace nephele
