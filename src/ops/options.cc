#include "ops/options.h"

#include "common/config.h"

namespace gumbo::ops {

OpOptions ApplyEnvOverrides(OpOptions options) {
  const common::RuntimeConfig& cfg = common::RuntimeConfig::Get();
  if (cfg.disable_filters.value_or(false)) options.bloom_filters = false;
  return options;
}

}  // namespace gumbo::ops
