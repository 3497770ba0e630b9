#include "src/fault/fault.h"

#include <algorithm>

namespace nephele {

FaultSpec FaultSpec::NthHit(std::uint64_t n, StatusCode code, std::string message) {
  FaultSpec spec;
  spec.policy = Policy::kNthHit;
  spec.nth = n == 0 ? 1 : n;
  spec.code = code;
  spec.message = std::move(message);
  return spec;
}

FaultSpec FaultSpec::WithProbability(double p, std::uint64_t seed, StatusCode code,
                                     std::string message) {
  FaultSpec spec;
  spec.policy = Policy::kProbability;
  spec.probability = std::clamp(p, 0.0, 1.0);
  spec.seed = seed;
  spec.code = code;
  spec.message = std::move(message);
  return spec;
}

Status FaultPoint::PokeArmed() {
  ++hits_since_armed_;
  bool fire = false;
  switch (spec_.policy) {
    case FaultSpec::Policy::kNever:
      break;
    case FaultSpec::Policy::kNthHit:
      fire = !fired_once_ && hits_since_armed_ == spec_.nth;
      break;
    case FaultSpec::Policy::kProbability:
      fire = rng_.NextBool(spec_.probability);
      break;
  }
  if (!fire) {
    return Status::Ok();
  }
  fired_once_ = true;
  injected_metric_.Increment();
  return Status(spec_.code, spec_.message + " at " + name_);
}

FaultPoint::BulkPoke FaultPoint::PokeMany(std::uint64_t n) {
  BulkPoke result;
  if (!armed_) {
    // Fast path: an unarmed Poke() only counts the hit.
    hits_ += n;
    result.performed = n;
    return result;
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    ++result.performed;
    result.status = Poke();
    if (!result.status.ok()) {
      return result;
    }
  }
  return result;
}

void FaultPoint::Arm(const FaultSpec& spec) {
  spec_ = spec;
  armed_ = true;
  hits_since_armed_ = 0;
  fired_once_ = false;
  rng_ = Rng(spec.seed);
}

void FaultPoint::Disarm() {
  armed_ = false;
  spec_ = FaultSpec{};
  hits_since_armed_ = 0;
  fired_once_ = false;
}

FaultInjector::FaultInjector(MetricsRegistry& metrics)
    : injected_counter_(metrics.GetCounter("fault/injected")) {}

FaultPoint* FaultInjector::GetPoint(std::string_view name) {
  auto it = points_.find(name);
  if (it == points_.end()) {
    auto point = std::make_unique<FaultPoint>(std::string(name), injected_counter_);
    it = points_.emplace(std::string(name), std::move(point)).first;
  }
  return it->second.get();
}

const FaultPoint* FaultInjector::FindPoint(std::string_view name) const {
  auto it = points_.find(name);
  return it == points_.end() ? nullptr : it->second.get();
}

Status FaultInjector::Arm(std::string_view name, const FaultSpec& spec) {
  auto it = points_.find(name);
  if (it == points_.end()) {
    return ErrNotFound("unknown fault point: " + std::string(name));
  }
  it->second->Arm(spec);
  return Status::Ok();
}

void FaultInjector::DisarmAll() {
  for (auto& [name, point] : points_) {
    point->Disarm();
  }
}

std::vector<std::string> FaultInjector::PointNames() const {
  std::vector<std::string> names;
  names.reserve(points_.size());
  for (const auto& [name, point] : points_) {
    names.push_back(name);
  }
  return names;  // std::map iteration is already sorted
}

std::uint64_t FaultInjector::HitCount(std::string_view name) const {
  const FaultPoint* p = FindPoint(name);
  return p == nullptr ? 0 : p->hits();
}

}  // namespace nephele
