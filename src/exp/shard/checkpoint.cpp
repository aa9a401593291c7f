#include "exp/shard/checkpoint.hpp"

#include <algorithm>
#include <fstream>
#include <limits>

#include "obs/telemetry.hpp"
#include "util/flat_json.hpp"

namespace ccd::exp {

namespace {

/// ts_ms from an already-parsed checkpoint line, 0 if absent/bad.
std::uint64_t heartbeat_of(const jsonu::FlatJson& flat) {
  const auto ts = flat.find("ts_ms");
  return ts ? jsonu::parse_u64(*ts).value_or(0) : 0;
}

}  // namespace

std::string checkpoint_header(const ShardSpec& shard) {
  std::string out = "{\"format\":\"ccd-shard-checkpoint-v1\"";
  out += ",\"grid_fingerprint\":\"" +
         fingerprint_to_hex(shard.grid_fingerprint);
  out += "\",\"shard_index\":" + std::to_string(shard.shard_index);
  out += ",\"shard_count\":" + std::to_string(shard.shard_count);
  out += ",\"ts_ms\":" + std::to_string(obs::wall_clock_ms());
  out += "}";
  return out;
}

std::string checkpoint_cell_marker(const CellAggregate& cell) {
  std::string marker = cell_aggregate_to_json(cell);
  marker.pop_back();  // cell_aggregate_to_json yields one flat object
  marker += ",\"ts_ms\":" + std::to_string(obs::wall_clock_ms());
  marker += "}";
  return marker;
}

bool load_checkpoint(const ShardSpec& shard, const std::string& path,
                     CheckpointContents* out, std::string* error) {
  *out = CheckpointContents{};
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out->missing = true;
    return true;  // no file yet: nothing completed
  }
  std::string line;
  if (!std::getline(in, line)) return true;  // empty file
  {
    auto flat = jsonu::FlatJson::parse(line);
    if (!flat) {
      // A header torn mid-write is the first-write crash artifact; it gets
      // the same amnesty as a torn marker -- but only when it really is
      // the file's final line.  Anything after it means the file was never
      // a checkpoint.
      if (in.peek() == std::ifstream::traits_type::eof()) {
        out->torn_tail = true;
        return true;
      }
      if (error) {
        *error = "checkpoint " + path +
                 ": unparseable header with content after it (not a "
                 "checkpoint file?)";
      }
      return false;
    }
    const auto format = flat->find("format");
    if (!format || *format != "ccd-shard-checkpoint-v1") {
      if (error) {
        *error = "checkpoint " + path +
                 ": missing or unknown header (expected "
                 "ccd-shard-checkpoint-v1)";
      }
      return false;
    }
    const auto fp = flat->find("grid_fingerprint");
    if (!fp || *fp != fingerprint_to_hex(shard.grid_fingerprint)) {
      if (error) {
        *error = "checkpoint " + path + ": grid fingerprint " +
                 std::string(fp.value_or("<missing>")) +
                 " does not match this shard's grid " +
                 fingerprint_to_hex(shard.grid_fingerprint) +
                 " (stale checkpoint from another grid?)";
      }
      return false;
    }
    out->last_ts_ms = std::max(out->last_ts_ms, heartbeat_of(*flat));
  }
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    // One parse per marker: the cell aggregate and its ts_ms heartbeat.
    auto flat = jsonu::FlatJson::parse(line);
    std::string cell_error = "cell aggregate is not a flat JSON object";
    auto cell = flat ? cell_aggregate_from_members(shard.grid, *flat,
                                                   &cell_error)
                     : std::nullopt;
    if (!cell) {
      // A final partial line is the expected crash artifact; only the LAST
      // line gets that amnesty.
      if (in.peek() == std::ifstream::traits_type::eof()) {
        out->torn_tail = true;
        break;
      }
      if (error) {
        *error = "checkpoint " + path + " line " + std::to_string(line_no) +
                 ": " + cell_error;
      }
      return false;
    }
    if (!shard.owns_cell(cell->cell_index)) {
      if (error) {
        *error = "checkpoint " + path + " line " + std::to_string(line_no) +
                 ": cell " + std::to_string(cell->cell_index) +
                 " is not owned by shard " +
                 std::to_string(shard.shard_index) + "/" +
                 std::to_string(shard.shard_count);
      }
      return false;
    }
    out->last_ts_ms = std::max(out->last_ts_ms, heartbeat_of(*flat));
    out->cells[cell->cell_index] = std::move(*cell);
  }
  return true;
}

bool tail_checkpoint(const std::string& path,
                     std::vector<std::size_t>* cells_done,
                     std::uint64_t* last_ts_ms) {
  if (cells_done) cells_done->clear();
  if (last_ts_ms) *last_ts_ms = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto flat = jsonu::FlatJson::parse(line);
    if (!flat) continue;  // mid-append torn line: skip, it will heal
    if (last_ts_ms) *last_ts_ms = std::max(*last_ts_ms, heartbeat_of(*flat));
    const auto cell_raw = flat->find("cell");
    if (!cell_raw || !cells_done) continue;
    if (auto c = jsonu::parse_u64(*cell_raw,
                                  std::numeric_limits<std::size_t>::max())) {
      cells_done->push_back(static_cast<std::size_t>(*c));
    }
  }
  return true;
}

}  // namespace ccd::exp
