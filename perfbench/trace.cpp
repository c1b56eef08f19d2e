#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench.hpp"
#include "common/error.hpp"
#include "obs/json.hpp"

namespace perfbench {

double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

Tracer::Scope::Scope(Tracer* t, std::string name) : tracer_(t) {
  if (t == nullptr) return;
  index_ = static_cast<int>(t->spans_.size());
  const int parent = t->open_.empty() ? -1 : t->open_.back();
  t->spans_.push_back({std::move(name), t->now(), 0.0, parent});
  t->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_s = tracer_->now();
  tracer_->open_.pop_back();
}

bool Tracer::under(int i, int ancestor) const {
  for (int p = spans_[static_cast<std::size_t>(i)].parent; p >= 0;
       p = spans_[static_cast<std::size_t>(p)].parent) {
    if (p == ancestor) return true;
  }
  return false;
}

double Tracer::total(const std::string& name, int root) const {
  double s = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name && under(static_cast<int>(i), root)) {
      s += spans_[i].end_s - spans_[i].start_s;
    }
  }
  return s;
}

double Tracer::self_time(int i) const {
  const Span& sp = spans_[static_cast<std::size_t>(i)];
  double covered = 0.0;
  for (const Span& c : spans_) {
    if (c.parent == i) covered += c.end_s - c.start_s;
  }
  return (sp.end_s - sp.start_s) - covered;
}

std::vector<int> Tracer::find(const std::string& name) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(static_cast<int>(i));
  }
  return out;
}

Tracer::Roots Tracer::roots(const std::string& root) const {
  Roots out;
  for (const int i : find(root)) {
    const Span& s = spans_[static_cast<std::size_t>(i)];
    out.seconds.push_back(s.end_s - s.start_s);
    out.unattributed.push_back(self_time(i) / out.seconds.back());
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  scalfrag::obs::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object()
        .kv("name", s.name)
        .kv("ph", "X")
        .kv("ts", s.start_s * 1e6)
        .kv("dur", (s.end_s - s.start_s) * 1e6)
        .kv("pid", 1)
        .kv("tid", 1)
        .key("args")
        .begin_object()
        .kv("id", static_cast<std::int64_t>(i))
        .kv("parent", static_cast<std::int64_t>(s.parent))
        .end_object()
        .end_object();
  }
  w.end_array().kv("displayTimeUnit", "ms").end_object();
  std::ofstream out(path);
  out << w.str() << '\n';
  SF_CHECK(out.good(), "cannot write trace " + path);
}

std::string Tracer::self_time_table(const std::string& root) const {
  struct Row {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  double roots = 0.0;
  const std::vector<int> root_ids = find(root);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int id = static_cast<int>(i);
    const bool is_root = spans_[i].name == root;
    if (!is_root && std::none_of(root_ids.begin(), root_ids.end(),
                                 [&](int r) { return under(id, r); })) {
      continue;
    }
    Row& r = rows[spans_[i].name];
    ++r.count;
    r.total += spans_[i].end_s - spans_[i].start_s;
    r.self += self_time(id);
    if (is_root) roots += spans_[i].end_s - spans_[i].start_s;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  std::string out = "self time under \"" + root + "\" spans\n" +
                    "span                                      count    "
                    "total_s     self_s  self%\n";
  char line[160];
  for (const auto& [name, r] : sorted) {
    std::snprintf(line, sizeof(line), "%-40s %6zu %10.4f %10.4f %6.2f\n",
                  name.c_str(), r.count, r.total, r.self,
                  roots > 0.0 ? 100.0 * r.self / roots : 0.0);
    out += line;
  }
  return out;
}

}  // namespace perfbench
