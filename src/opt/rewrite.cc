#include "opt/rewrite.h"

#include <algorithm>
#include <vector>

namespace nw {

namespace {

/// Lexicographic order on steps, for canonical kPathSet member order.
bool StepLess(const PathStep& a, const PathStep& b) {
  if (a.axis != b.axis) return a.axis < b.axis;
  return a.name < b.name;
}

bool PathLess(const std::vector<PathStep>& a, const std::vector<PathStep>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end(),
                                      StepLess);
}

/// Collects the n-ary child list of a chain of `op` nodes, in order.
void Flatten(const Query& q, Query::Op op, std::vector<Query>* out) {
  if (q.op() == op) {
    Flatten(q.left(), op, out);
    Flatten(q.right(), op, out);
  } else {
    out->push_back(q);
  }
}

/// Flatten + dedup + (for `or`) path fusion, then rebuild left-associated.
Query NormalizeNary(const Query& q) {
  const Query::Op op = q.op();
  std::vector<Query> flat;
  Flatten(q, op, &flat);
  for (Query& child : flat) child = RewriteQuery(child);

  std::vector<Query> children;
  for (const Query& child : flat) {
    bool seen = false;
    for (const Query& kept : children) seen = seen || kept == child;
    if (!seen) children.push_back(child);
  }

  if (op == Query::Op::kOr) {
    // Fuse every path-shaped child (kPath, or an already-fused kPathSet
    // from a nested rewrite) into one canonical kPathSet, placed where the
    // first of them stood.
    std::vector<std::vector<PathStep>> paths;
    size_t first = children.size();
    std::vector<Query> rest;
    for (size_t i = 0; i < children.size(); ++i) {
      const Query& child = children[i];
      if (child.op() == Query::Op::kPath) {
        paths.push_back(child.steps());
      } else if (child.op() == Query::Op::kPathSet) {
        for (const auto& steps : child.step_sets()) paths.push_back(steps);
      } else {
        rest.push_back(child);
        continue;
      }
      first = std::min(first, i);
    }
    if (paths.size() > 1) {
      std::sort(paths.begin(), paths.end(), PathLess);
      paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
      Query fused = paths.size() == 1 ? Query::Path(std::move(paths[0]))
                                      : Query::PathSet(std::move(paths));
      rest.insert(rest.begin() + std::min(first, rest.size()),
                  std::move(fused));
      children = std::move(rest);
    }
  }

  Query out = children[0];
  for (size_t i = 1; i < children.size(); ++i) {
    out = op == Query::Op::kAnd ? Query::And(std::move(out), children[i])
                                : Query::Or(std::move(out), children[i]);
  }
  return out;
}

}  // namespace

Query RewriteQuery(const Query& q) {
  switch (q.op()) {
    case Query::Op::kAnd:
    case Query::Op::kOr:
      return NormalizeNary(q);
    case Query::Op::kNot:
      return Query::Not(RewriteQuery(q.left()));
    default:
      return q;
  }
}

}  // namespace nw
