#include "tracer.hpp"

#include <algorithm>
#include <fstream>

#include "ftl/serve/json.hpp"
#include "ftl/util/error.hpp"

namespace bench_e2e {

std::size_t Tracer::open(const char* name, std::uint64_t request) {
  const std::size_t parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back(Span{name, request, parent, Clock::now(), {}});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t span) {
  spans_[span].end = Clock::now();
  open_.pop_back();
}

void Tracer::add(const char* name, std::uint64_t request, std::size_t parent,
                 Clock::time_point start, Clock::time_point end) {
  spans_.push_back(Span{name, request, parent, start, end});
}

std::vector<double> Tracer::self_us() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoParent) children[spans_[i].parent].push_back(i);
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (const std::size_t c : children[i]) {
      cover.emplace_back(std::max(spans_[c].start, s.start),
                         std::min(spans_[c].end, s.end));
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [from, to] : cover) {
      const Clock::time_point begin = std::max(from, reach);
      if (to > begin) {
        covered += us_between(begin, to);
        reach = to;
      }
    }
    self[i] = us_between(s.start, s.end) - covered;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw ftl::Error("cannot write " + path);
  const std::vector<double> self = self_us();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    ftl::serve::JsonValue row = ftl::serve::JsonValue::object();
    row.set("span", ftl::serve::JsonValue::number(static_cast<double>(i)));
    row.set("name", ftl::serve::JsonValue::str(s.name));
    row.set("request", ftl::serve::JsonValue::number(static_cast<double>(s.request)));
    row.set("parent", s.parent == kNoParent
                          ? ftl::serve::JsonValue::null()
                          : ftl::serve::JsonValue::number(static_cast<double>(s.parent)));
    row.set("start_us", ftl::serve::JsonValue::number(us_between(epoch_, s.start)));
    row.set("end_us", ftl::serve::JsonValue::number(us_between(epoch_, s.end)));
    row.set("self_us", ftl::serve::JsonValue::number(self[i]));
    out << row.dump() << '\n';
  }
  if (!out) throw ftl::Error("cannot write " + path);
}

}  // namespace bench_e2e
