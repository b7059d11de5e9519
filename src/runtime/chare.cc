#include "runtime/chare.h"

#include "runtime/job.h"
#include "util/check.h"

namespace cloudlb {

RuntimeJob& Chare::job() const {
  CLB_CHECK_MSG(job_ != nullptr, "chare not yet added to a job");
  return *job_;
}

std::vector<double> Chare::new_payload() const {
  return job().take_payload(id_);
}

void Chare::recycle_payload(std::vector<double> buffer) const {
  job().recycle_payload(id_, std::move(buffer));
}

void Chare::send(ChareId dest, int tag, std::vector<double> data,
                 std::size_t bytes) const {
  job().send(id_, dest, tag, std::move(data), bytes);
}

void Chare::at_sync() const { job().at_sync(id_); }

void Chare::contribute(double value) const { job().contribute(id_, value); }

void Chare::on_reduction_result(double /*result*/) {
  CLB_CHECK_MSG(false,
                "chare contributed but does not override on_reduction_result");
}

void Chare::finish() const { job().chare_finished(id_); }

void Chare::report_iteration(int iteration) const {
  job().report_iteration(id_, iteration);
}

}  // namespace cloudlb
