#include "src/obs/clone_metrics.h"

namespace nephele {

CloneMetricsObserver::CloneMetricsObserver(MetricsRegistry& metrics, EventLoop& loop)
    : loop_(loop),
      completions_(metrics.GetCounter("clone/completions")),
      child_resumes_(metrics.GetCounter("clone/resume/child_total")),
      parent_resumes_(metrics.GetCounter("clone/resume/parent_total")),
      fork_to_resume_ns_(metrics.GetHistogram("clone/fork_to_resume/duration_ns")) {}

void CloneMetricsObserver::OnCloneStart(DomId parent, unsigned /*num_clones*/) {
  // A parent can only have one batch in flight (it is paused until the batch
  // completes), so a plain map entry suffices.
  batch_start_[parent] = loop_.Now();
}

void CloneMetricsObserver::OnCloneComplete(DomId /*parent*/, DomId /*child*/) {
  completions_.Increment();
}

void CloneMetricsObserver::OnResume(DomId dom, bool is_child) {
  if (is_child) {
    child_resumes_.Increment();
    return;
  }
  parent_resumes_.Increment();
  auto it = batch_start_.find(dom);
  if (it != batch_start_.end()) {
    fork_to_resume_ns_.Observe((loop_.Now() - it->second).ns());
    batch_start_.erase(it);
  }
}

}  // namespace nephele
