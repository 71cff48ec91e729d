#include "obs/request_context.h"

#include "obs/json_writer.h"

namespace colgraph::obs {

std::string RequestContext::ToJson(uint64_t snapshot_epoch) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("request_id");
  w.Uint(request_id_);
  w.Key("snapshot_epoch");
  w.Uint(snapshot_epoch);
  w.Key("total_us");
  w.Uint(ElapsedUs());
  trace_->WriteEvents(&w);
  w.EndObject();
  return w.str();
}

}  // namespace colgraph::obs
