#include "exp/shard/checkpoint.hpp"

#include <algorithm>
#include <fstream>

#include "obs/telemetry.hpp"
#include "util/flat_json.hpp"

namespace ccd::exp {

std::string checkpoint_header(const ShardSpec& shard) {
  std::string out = "{\"format\":\"ccd-shard-checkpoint-v1\"";
  out += ",\"grid_fingerprint\":\"" +
         fingerprint_to_hex(shard.grid_fingerprint) + "\"";
  jsonu::append_members(out, shard, kShardIdentityFields);
  jsonu::append_member(out, "ts_ms", obs::wall_clock_ms());
  out += "}";
  return out;
}

std::string checkpoint_cell_marker(const CellAggregate& cell) {
  std::string marker = cell_aggregate_to_json(cell);
  marker.pop_back();  // cell_aggregate_to_json yields one flat object
  jsonu::append_member(marker, "ts_ms", obs::wall_clock_ms());
  marker += "}";
  return marker;
}

CheckpointReader::CheckpointReader(ShardSpec shard, std::string path)
    : shard_(std::move(shard)), path_(std::move(path)) {}

bool CheckpointReader::read() {
  if (!error_.empty()) return false;
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  if (!in) return true;  // not written yet: nothing completed
  const std::streamoff size = in.tellg();
  const auto offset = static_cast<std::streamoff>(offset_);
  if (size <= offset) return true;
  std::string text(static_cast<std::size_t>(size - offset), '\0');
  in.seekg(offset);
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(in.gcount()));

  std::size_t begin = 0;
  for (std::size_t end; (end = text.find('\n', begin)) != std::string::npos;
       begin = end + 1) {
    if (!read_line(std::string_view(text).substr(begin, end - begin))) {
      cells_.clear();
      return false;
    }
  }
  offset_ += begin;  // a partial last line waits for its newline
  return true;
}

bool CheckpointReader::read_line(std::string_view line) {
  ++lines_;
  auto fail = [&](const std::string& what) {
    error_ = "checkpoint " + path_;
    if (lines_ > 1) error_.append(" line ").append(std::to_string(lines_));
    error_.append(": ").append(what);
    return false;
  };
  const auto flat = jsonu::FlatJson::parse(line);
  if (lines_ == 1) {
    if (!flat) return fail("unparseable header (not a checkpoint file?)");
    const auto format = flat->find("format");
    if (!format || *format != "ccd-shard-checkpoint-v1") {
      return fail(
          "missing or unknown header (expected ccd-shard-checkpoint-v1)");
    }
    const std::string want = fingerprint_to_hex(shard_.grid_fingerprint);
    const auto fp = flat->find("grid_fingerprint");
    if (!fp || *fp != want) {
      return fail("grid fingerprint " + std::string(fp.value_or("<missing>")) +
                  " does not match this shard's grid " + want +
                  " (stale checkpoint from another grid?)");
    }
  } else {
    if (line.empty()) return true;
    std::string cell_error = "cell aggregate is not a flat JSON object";
    auto cell = flat ? cell_aggregate_from_members(shard_.grid, *flat,
                                                   &cell_error)
                     : std::nullopt;
    if (!cell) return fail(cell_error);
    if (!shard_.owns_cell(cell->cell_index)) {
      return fail("cell " + std::to_string(cell->cell_index) +
                  " is not owned by shard " +
                  std::to_string(shard_.shard_index) + "/" +
                  std::to_string(shard_.shard_count));
    }
    cells_[cell->cell_index] = std::move(*cell);
  }
  // ts_ms is optional: a line without a valid one adds no heartbeat.
  if (const auto ts = flat->find("ts_ms")) {
    last_ts_ms_ = std::max(last_ts_ms_, jsonu::parse_u64(*ts).value_or(0));
  }
  return true;
}

}  // namespace ccd::exp
