#include "src/analysis/protocol_spec.h"

#include <algorithm>
#include <sstream>

#include "src/common/check.h"

namespace probcon {
namespace {

void CheckQuorum(int q, int n, const char* name) {
  CHECK(q >= 1 && q <= n) << name << "=" << q << " invalid for n=" << n;
}

}  // namespace

RaftConfig RaftConfig::Standard(int n) {
  CHECK_GT(n, 0);
  RaftConfig config;
  config.n = n;
  config.q_per = n / 2 + 1;
  config.q_vc = n / 2 + 1;
  return config;
}

std::string RaftConfig::Describe() const {
  std::ostringstream os;
  os << "raft(n=" << n << ", q_per=" << q_per << ", q_vc=" << q_vc << ")";
  return os.str();
}

PbftConfig PbftConfig::Standard(int n) {
  CHECK_GE(n, kPbftMinNodes) << "PBFT needs n >= " << kPbftMinNodes;
  PbftConfig config;
  config.n = n;
  const int f = (n - 1) / 3;
  const int q = (n + f + 2) / 2;  // ceil((n + f + 1) / 2)
  config.q_eq = q;
  config.q_per = q;
  config.q_vc = q;
  config.q_vc_t = f + 1;
  return config;
}

std::string PbftConfig::Describe() const {
  std::ostringstream os;
  os << "pbft(n=" << n << ", q_eq=" << q_eq << ", q_per=" << q_per << ", q_vc=" << q_vc
     << ", q_vc_t=" << q_vc_t << ")";
  return os.str();
}

bool RaftIsSafeStructurally(const RaftConfig& config) {
  CheckQuorum(config.q_per, config.n, "q_per");
  CheckQuorum(config.q_vc, config.n, "q_vc");
  return config.n < config.q_per + config.q_vc && config.n < 2 * config.q_vc;
}

bool RaftIsLive(const RaftConfig& config, int correct_count) {
  CHECK(correct_count >= 0 && correct_count <= config.n);
  return correct_count >= std::max(config.q_per, config.q_vc);
}

bool PbftIsSafe(const PbftConfig& config, int byzantine_count) {
  CheckQuorum(config.q_eq, config.n, "q_eq");
  CheckQuorum(config.q_per, config.n, "q_per");
  CheckQuorum(config.q_vc, config.n, "q_vc");
  CheckQuorum(config.q_vc_t, config.n, "q_vc_t");
  CHECK(byzantine_count >= 0 && byzantine_count <= config.n);
  return byzantine_count < 2 * config.q_eq - config.n &&
         byzantine_count < config.q_per + config.q_vc - config.n;
}

bool PbftIsLive(const PbftConfig& config, int byzantine_count) {
  CHECK(byzantine_count >= 0 && byzantine_count <= config.n);
  const int correct = config.n - byzantine_count;
  const int max_quorum = std::max({config.q_eq, config.q_per, config.q_vc});
  return byzantine_count <= config.q_vc - config.q_vc_t && correct >= max_quorum &&
         byzantine_count < config.q_vc_t;
}

}  // namespace probcon
