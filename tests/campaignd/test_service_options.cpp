// campaignd submit-frame coordinator options: values a client sends must
// either fit their field exactly or be rejected, never silently wrap.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "campaignd/json.hpp"
#include "campaignd/service.hpp"

namespace mts {
namespace {

namespace json = campaignd::json;

json::Value options_with(const std::string& key, std::uint64_t value) {
  json::Value v = json::Value::object();
  v.set(key, json::Value::number_u64(value));
  return v;
}

TEST(CampaigndServiceOptions, OutOfRangeValuesRejected) {
  constexpr std::uint64_t k2p32 = std::uint64_t{1} << 32;
  constexpr std::uint64_t kIntOver =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max()) + 1;
  for (const char* key : {"workers", "unit_retries", "respawn_limit"}) {
    EXPECT_THROW(campaignd::coordinator_options_from_json(options_with(key, k2p32)),
                 json::ProtocolError)
        << key;
    EXPECT_THROW(
        campaignd::coordinator_options_from_json(options_with(key, k2p32 + 1)),
        json::ProtocolError)
        << key;
  }
  for (const char* key : {"heartbeat_interval_ms", "heartbeat_timeout_ms",
                          "progress_timeout_ms", "backoff_initial_ms",
                          "backoff_max_ms"}) {
    EXPECT_THROW(campaignd::coordinator_options_from_json(options_with(key, k2p32)),
                 json::ProtocolError)
        << key;
    EXPECT_THROW(
        campaignd::coordinator_options_from_json(options_with(key, kIntOver)),
        json::ProtocolError)
        << key;
  }
}

TEST(CampaigndServiceOptions, InRangeValuesKeepTheirValue) {
  campaignd::CoordinatorOptions opt;
  opt.workers = std::numeric_limits<unsigned>::max();
  opt.unit_size = 7;
  opt.heartbeat_interval_ms = 1;
  opt.heartbeat_timeout_ms = std::numeric_limits<int>::max();
  opt.progress_timeout_ms = 0;
  opt.unit_retries = 5;
  opt.backoff_initial_ms = 3;
  opt.backoff_max_ms = 40;
  opt.respawn_limit = std::numeric_limits<unsigned>::max();
  opt.checkpoint_every = std::numeric_limits<std::size_t>::max();

  const json::Value wire = campaignd::coordinator_options_to_json(opt);
  const campaignd::CoordinatorOptions back =
      campaignd::coordinator_options_from_json(wire);
  EXPECT_EQ(campaignd::coordinator_options_to_json(back).dump(), wire.dump());
  EXPECT_EQ(back.workers, opt.workers);
  EXPECT_EQ(back.heartbeat_timeout_ms, opt.heartbeat_timeout_ms);
  EXPECT_EQ(back.respawn_limit, opt.respawn_limit);
  EXPECT_EQ(back.checkpoint_every, opt.checkpoint_every);

  // Absent keys keep the defaults.
  const campaignd::CoordinatorOptions dflt =
      campaignd::coordinator_options_from_json(json::Value::object());
  EXPECT_EQ(campaignd::coordinator_options_to_json(dflt).dump(),
            campaignd::coordinator_options_to_json({}).dump());
}

TEST(CampaigndServiceOptions, OverflowingSloBudgetRejected) {
  // A budget of 1e999 would otherwise parse as +inf, ship to workers as 0
  // (SLO off) and share the digest -- and so the checkpoints -- of the
  // budget-0 job.
  campaignd::JobSpec job;
  job.opt.slo.budget = 5.0;
  std::string text = campaignd::job_to_json(job).dump();
  const std::string budget = "\"budget\":5";
  const std::size_t at = text.find(budget);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, budget.size(), "\"budget\":1e999");
  EXPECT_THROW(campaignd::job_from_json(json::parse(text)),
               json::ProtocolError);
  EXPECT_NO_THROW(campaignd::job_from_json(json::parse(
      campaignd::job_to_json(job).dump())));
}

}  // namespace
}  // namespace mts
