#include "ftl/library/store.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <utility>

#include "ftl/jobs/digest.hpp"
#include "ftl/library/npn.hpp"
#include "ftl/util/error.hpp"

namespace ftl::library {
namespace {

constexpr const char* kJobName = "npn_lattice";

std::string cells_to_string(const lattice::Lattice& lat) {
  std::ostringstream os;
  for (int r = 0; r < lat.rows(); ++r) {
    for (int c = 0; c < lat.cols(); ++c) {
      if (r != 0 || c != 0) os << ' ';
      const lattice::CellValue& cell = lat.at(r, c);
      switch (cell.kind) {
        case lattice::CellValue::Kind::kConst0:
          os << '0';
          break;
        case lattice::CellValue::Kind::kConst1:
          os << '1';
          break;
        case lattice::CellValue::Kind::kLiteral:
          os << 'x' << cell.literal.var;
          if (!cell.literal.positive) os << '\'';
          break;
      }
    }
  }
  return os.str();
}

lattice::Lattice cells_from_string(const std::string& text, int rows, int cols,
                                   int num_vars) {
  lattice::Lattice lat(rows, cols, num_vars);
  std::istringstream is(text);
  std::string token;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (!(is >> token)) throw Error("npn_lattice record: too few cells");
      lattice::CellValue value;
      if (token == "0") {
        value = lattice::CellValue::zero();
      } else if (token == "1") {
        value = lattice::CellValue::one();
      } else if (token.size() >= 2 && token[0] == 'x') {
        const bool positive = token.back() != '\'';
        const std::string digits =
            token.substr(1, token.size() - (positive ? 1 : 2));
        const int var = std::stoi(digits);
        if (var < 0 || var >= num_vars) {
          throw Error("npn_lattice record: literal out of range");
        }
        value = lattice::CellValue::of(var, positive);
      } else {
        throw Error("npn_lattice record: bad cell token '" + token + "'");
      }
      lat.set(r, c, value);
    }
  }
  if (is >> token) throw Error("npn_lattice record: trailing cells");
  return lat;
}

void encode_entry(jobs::Artifact& a, const char* prefix, bool phase,
                  const LibraryEntry& entry) {
  const std::string p(prefix);
  a.notes[p + "_cells"] = cells_to_string(entry.lattice);
  a.notes[p + "_engine"] = entry.engine;
  a.notes[p + "_seed"] = jobs::digest_hex(entry.seed);
  a.scalars[p + "_rows"] = entry.lattice.rows();
  a.scalars[p + "_cols"] = entry.lattice.cols();
  a.scalars[p + "_cost_ms"] = entry.cost_ms;
  a.scalars[p + "_certified"] = entry.certified ? 1.0 : 0.0;
  a.add_row({phase ? 1.0 : 0.0, static_cast<double>(entry.lattice.rows()),
             static_cast<double>(entry.lattice.cols()),
             static_cast<double>(entry.lattice.cell_count())});
}

std::optional<LibraryEntry> decode_entry(const jobs::Artifact& a,
                                         const char* prefix, int num_vars) {
  const std::string p(prefix);
  const auto cells = a.notes.find(p + "_cells");
  if (cells == a.notes.end()) return std::nullopt;
  const int rows = static_cast<int>(a.scalar(p + "_rows"));
  const int cols = static_cast<int>(a.scalar(p + "_cols"));
  if (rows < 1 || cols < 1 || rows > 64 || cols > 64) {
    throw Error("npn_lattice record: bad dimensions");
  }
  LibraryEntry entry;
  entry.lattice = cells_from_string(cells->second, rows, cols, num_vars);
  entry.engine = a.note(p + "_engine");
  entry.seed = std::stoull(a.note(p + "_seed"), nullptr, 16);
  entry.cost_ms = a.scalar_or(p + "_cost_ms", 0.0);
  entry.certified = a.scalar_or(p + "_certified", 0.0) != 0.0;
  return entry;
}

jobs::Artifact class_to_artifact(const LibraryClass& cls) {
  jobs::Artifact a;
  a.set_columns({"phase", "rows", "cols", "cells"});
  a.scalars["num_vars"] = cls.canonical.num_vars();
  a.notes["table"] = jobs::digest_hex(cls.canonical.word(0));
  if (cls.direct) encode_entry(a, "d", false, *cls.direct);
  if (cls.complement) encode_entry(a, "c", true, *cls.complement);
  return a;
}

LibraryClass class_from_artifact(const jobs::Artifact& a) {
  const int num_vars = static_cast<int>(a.scalar("num_vars"));
  if (num_vars < 0 || num_vars > 6) {
    throw Error("npn_lattice record: bad num_vars");
  }
  LibraryClass cls;
  cls.canonical = logic::TruthTable::from_bits(
      num_vars, std::stoull(a.note("table"), nullptr, 16));
  cls.direct = decode_entry(a, "d", num_vars);
  cls.complement = decode_entry(a, "c", num_vars);
  return cls;
}

std::optional<LibraryEntry>& slot_of(LibraryClass& cls, bool complement) {
  return complement ? cls.complement : cls.direct;
}

/// Merge policy shared by insert() and disk fault-in: fewer cells wins,
/// ties keep the incumbent (so repeated runs are stable).
bool offer(std::optional<LibraryEntry>& slot, LibraryEntry entry) {
  if (slot && slot->lattice.cell_count() <= entry.lattice.cell_count()) {
    return false;
  }
  slot = std::move(entry);
  return true;
}

}  // namespace

LatticeLibrary::LatticeLibrary() = default;

LatticeLibrary::LatticeLibrary(std::string dir) : dir_(std::move(dir)) {
  FTL_EXPECTS(!dir_.empty());
  cache_.emplace(dir_);
}

LatticeLibrary::Shard& LatticeLibrary::shard_of(std::uint64_t key) {
  return shards_[jobs::mix64(key) >> 60];
}

const LatticeLibrary::Shard& LatticeLibrary::shard_of(
    std::uint64_t key) const {
  return shards_[jobs::mix64(key) >> 60];
}

std::optional<LibraryClass> LatticeLibrary::fault_in(std::uint64_t key) {
  if (!cache_) return std::nullopt;
  const std::optional<jobs::Artifact> artifact = cache_->load(kJobName, key);
  if (!artifact) return std::nullopt;
  LibraryClass loaded;
  try {
    loaded = class_from_artifact(*artifact);
  } catch (const std::exception&) {
    return std::nullopt;  // corrupt record reads as a miss, like ResultCache
  }
  counters_.disk_loads.add();
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.classes.try_emplace(key, loaded);
  if (!inserted) {
    if (loaded.direct) offer(it->second.direct, std::move(*loaded.direct));
    if (loaded.complement) {
      offer(it->second.complement, std::move(*loaded.complement));
    }
  }
  return it->second;
}

std::optional<LibraryEntry> LatticeLibrary::find(std::uint64_t key,
                                                 bool complement) {
  {
    Shard& shard = shard_of(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.classes.find(key);
    if (it != shard.classes.end()) {
      const std::optional<LibraryEntry>& slot =
          complement ? it->second.complement : it->second.direct;
      if (slot) return *slot;
    }
  }
  // The requested slot is not in memory; the on-disk record may still have
  // it (filled by an earlier process or a precompute run).
  if (std::optional<LibraryClass> cls = fault_in(key)) {
    const std::optional<LibraryEntry>& slot =
        complement ? cls->complement : cls->direct;
    if (slot) return *slot;
  }
  return std::nullopt;
}

bool LatticeLibrary::insert(std::uint64_t key,
                            const logic::TruthTable& canonical,
                            bool complement, LibraryEntry entry) {
  FTL_EXPECTS(npn_key(canonical) == key);
  FTL_EXPECTS(entry.lattice.num_vars() == canonical.num_vars() ||
              entry.lattice.num_vars() == 0 || canonical.num_vars() == 0);
  LibraryClass to_store;
  bool kept = false;
  bool was_filled = false;
  {
    Shard& shard = shard_of(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.classes.try_emplace(key);
    if (inserted) it->second.canonical = canonical;
    std::optional<LibraryEntry>& slot = slot_of(it->second, complement);
    was_filled = slot.has_value();
    kept = offer(slot, std::move(entry));
    if (kept) to_store = it->second;
  }
  if (!kept) return false;
  if (was_filled) {
    counters_.improvements.add();
  } else {
    counters_.populates.add();
  }
  if (cache_) {
    cache_->store(kJobName, key, class_to_artifact(to_store));
    counters_.disk_stores.add();
  }
  return true;
}

bool LatticeLibrary::stamp_certified(std::uint64_t key, bool complement,
                                     bool certified) {
  LibraryClass to_store;
  {
    Shard& shard = shard_of(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.classes.find(key);
    if (it == shard.classes.end()) return false;
    std::optional<LibraryEntry>& slot = slot_of(it->second, complement);
    if (!slot) return false;
    if (slot->certified == certified) return true;
    slot->certified = certified;
    to_store = it->second;
  }
  if (cache_) {
    cache_->store(kJobName, key, class_to_artifact(to_store));
    counters_.disk_stores.add();
  }
  return true;
}

std::size_t LatticeLibrary::load_all() {
  if (cache_) {
    const std::string prefix = std::string(kJobName) + ".";
    std::error_code ec;
    for (const auto& dirent :
         std::filesystem::directory_iterator(dir_, ec)) {
      const std::string name = dirent.path().filename().string();
      if (name.size() != prefix.size() + 16 + 4 ||
          name.compare(0, prefix.size(), prefix) != 0 ||
          name.compare(name.size() - 4, 4, ".art") != 0) {
        continue;
      }
      const std::string hex = name.substr(prefix.size(), 16);
      std::uint64_t key = 0;
      try {
        key = std::stoull(hex, nullptr, 16);
      } catch (const std::exception&) {
        continue;
      }
      fault_in(key);
    }
  }
  return num_classes();
}

std::vector<std::pair<std::uint64_t, LibraryClass>> LatticeLibrary::snapshot()
    const {
  std::vector<std::pair<std::uint64_t, LibraryClass>> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, cls] : shard.classes) out.emplace_back(key, cls);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::size_t LatticeLibrary::num_classes() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.classes.size();
  }
  return n;
}

std::size_t LatticeLibrary::num_entries() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, cls] : shard.classes) {
      n += (cls.direct ? 1 : 0) + (cls.complement ? 1 : 0);
    }
  }
  return n;
}

}  // namespace ftl::library
