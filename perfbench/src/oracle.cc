#include "oracle.h"

#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "datagen/vector_lake.h"
#include "vec/metric.h"

namespace perfbench {

namespace {

std::string Fmt(const char* fmt, unsigned long long a, unsigned long long b = 0,
                unsigned long long c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

double SquaredNorm(const float* a, uint32_t dim) {
  double s = 0.0;
  for (uint32_t i = 0; i < dim; ++i) s += static_cast<double>(a[i]) * a[i];
  return s;
}

}  // namespace

Oracle::Oracle(uint32_t dim, Distance distance, double tau, double band,
               const std::vector<OracleColumn>* columns)
    : dim_(dim),
      distance_(distance),
      tau_(tau),
      band_(band),
      columns_(columns) {
  norms_.resize(columns->size());
  for (size_t c = 0; c < columns->size(); ++c) {
    const OracleColumn& col = (*columns)[c];
    norms_[c].resize(col.count);
    for (uint32_t v = 0; v < col.count; ++v) {
      norms_[c][v] = std::sqrt(SquaredNorm(col.data + size_t{v} * dim, dim));
    }
  }
}

double Oracle::Sq(const float* a, double na, const float* b,
                  double nb) const {
  if (distance_ == Distance::kL2) {
    double s = 0.0;
    for (uint32_t i = 0; i < dim_; ++i) {
      const double d = static_cast<double>(a[i]) - b[i];
      s += d * d;
    }
    return s;
  }
  if (na <= 0.0 || nb <= 0.0) return 2.0;
  double dot = 0.0;
  for (uint32_t i = 0; i < dim_; ++i) dot += static_cast<double>(a[i]) * b[i];
  double cosv = dot / (na * nb);
  cosv = std::min(1.0, std::max(-1.0, cosv));
  return 2.0 - 2.0 * cosv;
}

double Oracle::Dist(const float* a, const float* b) const {
  return std::sqrt(Sq(a, std::sqrt(SquaredNorm(a, dim_)), b,
                      std::sqrt(SquaredNorm(b, dim_))));
}

std::vector<CountRange> Oracle::Count(const float* q, size_t nq) const {
  const double sure = std::max(0.0, tau_ - band_);
  const double sure_sq = sure * sure;
  const double maybe_sq = (tau_ + band_) * (tau_ + band_);
  std::vector<double> qnorm(nq);
  for (size_t r = 0; r < nq; ++r) {
    qnorm[r] = std::sqrt(SquaredNorm(q + r * dim_, dim_));
  }
  std::vector<CountRange> out(columns_->size());
  for (size_t c = 0; c < columns_->size(); ++c) {
    const OracleColumn& col = (*columns_)[c];
    for (size_t r = 0; r < nq; ++r) {
      const float* qv = q + r * dim_;
      bool surely = false;
      bool maybe = false;
      for (uint32_t v = 0; v < col.count && !surely; ++v) {
        const double d2 =
            Sq(qv, qnorm[r], col.data + size_t{v} * dim_, norms_[c][v]);
        if (d2 <= sure_sq) {
          surely = true;
        } else if (d2 <= maybe_sq) {
          maybe = true;
        }
      }
      if (surely) ++out[c].lo;
      if (surely || maybe) ++out[c].hi;
    }
  }
  return out;
}

std::string Oracle::Check(const float* q, size_t nq,
                          const std::vector<CountRange>& counts,
                          const Expectation& expect,
                          const std::vector<pexeso::JoinableColumn>& got) const {
  std::unordered_map<uint32_t, size_t> slot;
  for (size_t c = 0; c < columns_->size(); ++c) slot[(*columns_)[c].id] = c;
  std::unordered_set<uint32_t> returned;
  for (size_t i = 0; i < got.size(); ++i) {
    const pexeso::JoinableColumn& jc = got[i];
    auto it = slot.find(jc.column);
    if (it == slot.end()) {
      return Fmt("column %llu is not a live column", jc.column);
    }
    if (!returned.insert(jc.column).second) {
      return Fmt("column %llu returned twice", jc.column);
    }
    const CountRange& cr = counts[it->second];
    const uint32_t m = jc.match_count;
    if (std::fabs(jc.joinability - static_cast<double>(m) / nq) > 1e-12) {
      return Fmt("column %llu joinability disagrees with count %llu",
                 jc.column, m);
    }
    if (m > cr.hi) {
      return Fmt("column %llu count %llu above exact %llu", jc.column, m,
                 cr.hi);
    }
    const bool exact = expect.topk || expect.mappings;
    if (exact && m < cr.lo) {
      return Fmt("column %llu count %llu below exact %llu", jc.column, m,
                 cr.lo);
    }
    if (!expect.topk && m < expect.t_abs) {
      return Fmt("column %llu count %llu below T %llu", jc.column, m,
                 expect.t_abs);
    }
    if (expect.topk && m == 0) {
      return Fmt("column %llu returned with no match", jc.column);
    }
    if (i > 0) {
      const pexeso::JoinableColumn& prev = got[i - 1];
      const bool ordered =
          expect.topk ? (prev.match_count > m ||
                         (prev.match_count == m && prev.column < jc.column))
                      : prev.column < jc.column;
      if (!ordered) return Fmt("column %llu out of order", jc.column);
    }
    if (expect.mappings) {
      if (jc.mapping.size() != m) {
        return Fmt("column %llu count %llu but %llu mapping pairs", jc.column,
                   m, jc.mapping.size());
      }
      const OracleColumn& col = (*columns_)[it->second];
      for (size_t p = 0; p < jc.mapping.size(); ++p) {
        const pexeso::RecordMatch& rm = jc.mapping[p];
        if (rm.query_index >= nq ||
            (p > 0 && rm.query_index <= jc.mapping[p - 1].query_index)) {
          return Fmt("column %llu mapping record %llu invalid", jc.column,
                     rm.query_index);
        }
        if (rm.target_vec < col.local_first ||
            rm.target_vec >= col.local_first + col.count) {
          return Fmt("column %llu mapping target %llu outside the column",
                     jc.column, rm.target_vec);
        }
        const float* target =
            col.data + size_t{rm.target_vec - col.local_first} * dim_;
        if (Dist(q + size_t{rm.query_index} * dim_, target) >
            tau_ + band_) {
          return Fmt("column %llu mapping pair (%llu, %llu) beyond tau",
                     jc.column, rm.query_index, rm.target_vec);
        }
      }
    }
  }
  if (expect.topk) {
    if (got.size() > expect.k) return "more than k columns";
    for (size_t c = 0; c < columns_->size(); ++c) {
      const uint32_t id = (*columns_)[c].id;
      if (returned.count(id) != 0) continue;
      const uint32_t lo = counts[c].lo;
      if (got.size() < expect.k) {
        if (lo > 0) return Fmt("column %llu (count %llu) missing", id, lo);
        continue;
      }
      const pexeso::JoinableColumn& last = got.back();
      if (lo > last.match_count ||
          (lo == last.match_count && id < last.column)) {
        return Fmt("column %llu (count %llu) outranks the k-th answer", id,
                   lo);
      }
    }
  } else {
    for (size_t c = 0; c < columns_->size(); ++c) {
      const uint32_t id = (*columns_)[c].id;
      if (counts[c].lo >= expect.t_abs && returned.count(id) == 0) {
        return Fmt("joinable column %llu (count %llu) missing", id,
                   counts[c].lo);
      }
    }
  }
  return "";
}

std::vector<std::string> CheckerSelfTest() {
  using namespace pexeso;
  VectorLakeOptions lake_opts;
  lake_opts.dim = 16;
  lake_opts.num_columns = 80;
  lake_opts.avg_col_size = 10.0;
  lake_opts.num_clusters = 6;
  lake_opts.seed = 5;
  ColumnCatalog catalog = GenerateVectorLake(lake_opts);
  std::vector<OracleColumn> cols;
  for (ColumnId c = 0; c < catalog.num_columns(); ++c) {
    const ColumnMeta& m = catalog.column(c);
    cols.push_back({c, catalog.store().View(m.first), m.count, m.first});
  }
  L2Metric metric;
  PexesoOptions popts;
  popts.num_pivots = 3;
  popts.levels = 4;
  PexesoIndex index = PexesoIndex::Build(catalog, &metric, popts);
  PexesoSearcher searcher(&index);
  const VectorStore query = GenerateVectorQuery(lake_opts, 12, 77);
  const double tau = 0.2;
  const Oracle oracle(lake_opts.dim, Distance::kL2, tau, 1e-5, &cols);
  const std::vector<CountRange> counts = oracle.Count(query.View(0), 12);

  std::vector<std::string> missed;
  auto run = [&](JoinQuery jq) {
    jq.vectors = &query;
    jq.thresholds.tau = tau;
    CollectSink sink;
    if (!searcher.Execute(jq, &sink, nullptr).ok()) missed.push_back("search");
    return sink.TakeColumns();
  };
  auto expect_ok = [&](const char* what, const Expectation& e,
                       const std::vector<JoinableColumn>& got) {
    const std::string why = oracle.Check(query.View(0), 12, counts, e, got);
    if (!why.empty()) missed.push_back(std::string(what) + ": " + why);
  };
  auto expect_bad = [&](const char* what, const Expectation& e,
                        const std::vector<JoinableColumn>& got) {
    if (oracle.Check(query.View(0), 12, counts, e, got).empty()) {
      missed.push_back(what);
    }
  };

  JoinQuery th;
  th.thresholds.t_abs = 3;
  th.collect_mappings = true;
  const Expectation th_e{false, 0, 3, true};
  const std::vector<JoinableColumn> th_got = run(th);
  expect_ok("threshold answer", th_e, th_got);
  if (th_got.size() < 2) missed.push_back("self-test lake has too few joins");

  JoinQuery tk;
  tk.mode = QueryMode::kTopK;
  tk.k = 5;
  const Expectation tk_e{true, 5, 1, false};
  const std::vector<JoinableColumn> tk_got = run(tk);
  expect_ok("topk answer", tk_e, tk_got);
  if (tk_got.size() < 5) missed.push_back("self-test lake has too few top-k");
  if (!missed.empty()) return missed;

  // A dropped column.
  std::vector<JoinableColumn> bad = th_got;
  bad.erase(bad.begin());
  expect_bad("dropped column (threshold)", th_e, bad);
  bad = tk_got;
  bad.erase(bad.begin());
  expect_bad("dropped column (topk)", tk_e, bad);
  // An added column: the lowest id missing from the answer.
  bad = th_got;
  {
    std::unordered_set<ColumnId> in;
    for (const auto& jc : bad) in.insert(jc.column);
    ColumnId extra = 0;
    while (in.count(extra) != 0) ++extra;
    JoinableColumn jc;
    jc.column = extra;
    jc.match_count = 3;
    jc.joinability = 3.0 / 12;
    bad.push_back(jc);
    std::sort(bad.begin(), bad.end(),
              [](const auto& a, const auto& b) { return a.column < b.column; });
  }
  expect_bad("added column (threshold)", th_e, bad);
  // A count off by one.
  bad = tk_got;
  bad.back().match_count += 1;
  bad.back().joinability = static_cast<double>(bad.back().match_count) / 12;
  expect_bad("count off by one (topk)", tk_e, bad);
  bad = th_got;
  bad.front().match_count -= 1;
  bad.front().joinability = static_cast<double>(bad.front().match_count) / 12;
  expect_bad("count off by one (threshold)", th_e, bad);
  // A mapping pair beyond tau: point the first pair at the column vector
  // farthest from its query record.
  bad = th_got;
  {
    RecordMatch& rm = bad.front().mapping.front();
    const ColumnMeta& m = catalog.column(bad.front().column);
    double worst = -1.0;
    for (VecId v = m.first; v < m.end(); ++v) {
      const double d = oracle.Dist(query.View(rm.query_index),
                                   catalog.store().View(v));
      if (d > worst) {
        worst = d;
        rm.target_vec = v;
      }
    }
    if (worst <= tau) missed.push_back("self-test column has no far vector");
  }
  expect_bad("mapping pair beyond tau", th_e, bad);
  return missed;
}

}  // namespace perfbench
