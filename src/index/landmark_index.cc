#include "index/landmark_index.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <utility>

#include "sssp/incremental_search.h"
#include "util/logging.h"
#include "util/concurrency.h"
#include "util/thread_pool.h"
#include "util/rng.h"

namespace kpj {

LandmarkIndex LandmarkIndex::Build(const Graph& graph,
                                   const Graph& reverse_graph,
                                   const LandmarkIndexOptions& options) {
  const NodeId n = graph.NumNodes();
  KPJ_CHECK(reverse_graph.NumNodes() == n)
      << "reverse graph node count mismatch";

  LandmarkIndex index;
  index.num_nodes_ = n;
  if (n == 0 || options.num_landmarks == 0) return index;

  const uint32_t num = std::min<uint32_t>(options.num_landmarks, n);
  // Filled with stride `num` (node-major); repacked below if farthest-point
  // selection stops early on tiny graphs.
  std::vector<uint32_t> from_table(static_cast<size_t>(num) * n,
                                   kUnreachable32);
  std::vector<uint32_t> to_table(static_cast<size_t>(num) * n,
                                 kUnreachable32);

  Rng rng(options.seed);
  const bool farthest = options.selection == LandmarkSelection::kFarthest;
  // On a symmetric graph (every arc has its reverse twin of equal weight,
  // as on the paper's bidirectional road networks) the reverse graph is
  // the graph itself, so δ(v, w) = δ(w, v): one forward run per landmark
  // fills both tables, and no backward run is needed.
  const bool symmetric = graph.Equals(reverse_graph);
  // Every run below is a full SSSP: the zero bound makes the engine plain
  // Dijkstra, and AdvanceToBound(kInfLength) runs it to exhaustion.
  ZeroHeuristic zero;
  auto run = [&zero](IncrementalSearch& engine, NodeId source) {
    std::pair<NodeId, PathLength> seed[] = {{source, 0}};
    engine.Initialize(seed, zero);
    engine.AdvanceToBound(kInfLength, zero);
  };
  // Column l of `table` from a finished run's distances.
  auto store = [n, num](const IncrementalSearch& engine,
                        std::vector<uint32_t>& table, size_t l) {
    for (NodeId v = 0; v < n; ++v) {
      table[static_cast<size_t>(v) * num + l] = Narrow(engine.Distance(v));
    }
  };

  if (!farthest) {
    for (uint64_t v : rng.SampleDistinct(num, n)) {
      index.landmarks_.push_back(static_cast<NodeId>(v));
    }
  } else {
    // Farthest-point selection (paper footnote 3): pick a random start
    // node, take the node farthest from it as the first landmark, then
    // iteratively take the node maximizing the minimum distance to the
    // landmark set. Distances here are forward distances from candidate
    // landmarks, which on the (bidirectional) road networks of the paper
    // are symmetric. This chain is inherently sequential — landmark l+1
    // depends on the SSSP of landmark l — so it runs on one thread; the
    // forward distances it computes are kept, and only the remaining
    // (independent) per-landmark runs are parallelized below.
    IncrementalSearch forward(graph);
    NodeId start = static_cast<NodeId>(rng.NextBounded(n));
    run(forward, start);
    NodeId first = start;
    PathLength best = 0;
    for (NodeId v = 0; v < n; ++v) {
      PathLength d = forward.Distance(v);
      if (d != kInfLength && d >= best) {
        best = d;
        first = v;
      }
    }

    std::vector<PathLength> min_dist(n, kInfLength);
    NodeId next = first;
    for (uint32_t l = 0; l < num; ++l) {
      index.landmarks_.push_back(next);
      run(forward, next);
      store(forward, from_table, l);
      if (symmetric) store(forward, to_table, l);
      for (NodeId v = 0; v < n; ++v) {
        min_dist[v] = std::min(min_dist[v], forward.Distance(v));
      }
      // Choose the next landmark: reachable node farthest from the set.
      next = index.landmarks_.front();
      PathLength far = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (min_dist[v] != kInfLength && min_dist[v] >= far &&
            min_dist[v] > 0) {
          far = min_dist[v];
          next = v;
        }
      }
      if (far == 0) break;  // Every reachable node is already a landmark.
    }
  }

  // Table filling: per landmark, the forward run random selection has not
  // made yet and, unless the graph is symmetric, one backward run. The runs
  // are independent and write disjoint strided slots, so they parallelize
  // trivially; each worker keeps its own engines (O(n) workspace each).
  // Distances are exact, so the result is byte-identical to the serial
  // build for any thread count. Farthest-point selection on a symmetric
  // graph has filled both tables already: 1 + |L| runs in all, against
  // 1 + 2|L| otherwise.
  const uint32_t actual_count = static_cast<uint32_t>(index.landmarks_.size());
  struct Workspace {
    std::unique_ptr<IncrementalSearch> forward;
    std::unique_ptr<IncrementalSearch> backward;
  };
  const unsigned workers = EffectiveWorkers(options.threads);
  std::vector<Workspace> workspaces(workers);
  auto fill = [&](size_t l, unsigned worker) {
    Workspace& ws = workspaces[worker];
    const NodeId landmark = index.landmarks_[l];
    if (!farthest) {
      if (ws.forward == nullptr) {
        ws.forward = std::make_unique<IncrementalSearch>(graph);
      }
      run(*ws.forward, landmark);
      store(*ws.forward, from_table, l);
      if (symmetric) store(*ws.forward, to_table, l);
    }
    if (!symmetric) {
      if (ws.backward == nullptr) {
        ws.backward = std::make_unique<IncrementalSearch>(reverse_graph);
      }
      run(*ws.backward, landmark);
      store(*ws.backward, to_table, l);
    }
  };
  if (!farthest || !symmetric) {
    if (workers == 1) {
      for (size_t l = 0; l < actual_count; ++l) fill(l, 0);
    } else {
      ThreadPool(workers).ParallelFor(actual_count, fill);
    }
  }
  const uint32_t actual = static_cast<uint32_t>(index.landmarks_.size());
  if (actual == num) {
    index.dist_from_ = std::move(from_table);
    index.dist_to_ = std::move(to_table);
  } else {
    // Early stop (tiny graphs): repack to the actual stride.
    std::vector<uint32_t> from_packed(static_cast<size_t>(actual) * n);
    std::vector<uint32_t> to_packed(static_cast<size_t>(actual) * n);
    for (NodeId v = 0; v < n; ++v) {
      for (uint32_t l = 0; l < actual; ++l) {
        from_packed[static_cast<size_t>(v) * actual + l] =
            from_table[static_cast<size_t>(v) * num + l];
        to_packed[static_cast<size_t>(v) * actual + l] =
            to_table[static_cast<size_t>(v) * num + l];
      }
    }
    index.dist_from_ = std::move(from_packed);
    index.dist_to_ = std::move(to_packed);
  }
  return index;
}

LandmarkIndex LandmarkIndex::Remap(const Permutation& permutation) const {
  if (permutation.empty()) return *this;
  KPJ_CHECK(permutation.size() == num_nodes_)
      << "permutation does not match landmark index";
  LandmarkIndex out;
  out.num_nodes_ = num_nodes_;
  out.landmarks_.reserve(landmarks_.size());
  for (NodeId l : landmarks_) out.landmarks_.push_back(permutation.ToNew(l));
  // Node-major tables: a node's row moves as a block; landmark columns stay
  // in selection order so column l still belongs to landmarks_[l].
  std::vector<uint32_t> from_table(dist_from_.size());
  std::vector<uint32_t> to_table(dist_to_.size());
  const uint32_t num = num_landmarks();
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const size_t src = static_cast<size_t>(v) * num;
    const size_t dst = static_cast<size_t>(permutation.ToNew(v)) * num;
    std::copy_n(dist_from_.begin() + src, num, from_table.begin() + dst);
    std::copy_n(dist_to_.begin() + src, num, to_table.begin() + dst);
  }
  out.dist_from_ = std::move(from_table);
  out.dist_to_ = std::move(to_table);
  return out;
}

PathLength LandmarkIndex::LowerBound(NodeId u, NodeId v) const {
  KPJ_DCHECK(u < num_nodes_ && v < num_nodes_);
  if (u == v) return 0;
  PathLength best = 0;
  for (uint32_t l = 0; l < num_landmarks(); ++l) {
    PathLength from_u = Widen(dist_from_[Slot(l, u)]);
    PathLength from_v = Widen(dist_from_[Slot(l, v)]);
    PathLength to_u = Widen(dist_to_[Slot(l, u)]);
    PathLength to_v = Widen(dist_to_[Slot(l, v)]);
    // dist(u,v) >= δ(l,v) - δ(l,u). If δ(l,u) is finite and δ(l,v) is not,
    // v is unreachable from u outright.
    if (from_u != kInfLength) {
      if (from_v == kInfLength) return kInfLength;
      best = std::max(best, ClampedSub(from_v, from_u));
    }
    // dist(u,v) >= δ(u,l) - δ(v,l); same unreachability inference.
    if (to_v != kInfLength) {
      if (to_u == kInfLength) return kInfLength;
      best = std::max(best, ClampedSub(to_u, to_v));
    }
  }
  return best;
}

namespace {

constexpr uint64_t kMagic = 0x4b504a4c4d4b3031ULL;  // "KPJLMK01"

template <typename T>
bool WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
  return static_cast<bool>(out);
}

template <typename C>
bool WriteVec(std::ofstream& out, const C& v) {
  uint64_t count = v.size();
  if (!WritePod(out, count)) return false;
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(
                count * sizeof(typename C::value_type)));
  return static_cast<bool>(out);
}

template <typename T>
bool ReadPod(std::ifstream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

template <typename T>
bool ReadVec(std::ifstream& in, std::vector<T>& v) {
  uint64_t count = 0;
  if (!ReadPod(in, count)) return false;
  if (count > (1ULL << 36)) return false;
  v.resize(count);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  return static_cast<bool>(in);
}

}  // namespace

Status LandmarkIndex::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  if (!WritePod(out, kMagic) || !WritePod(out, num_nodes_) ||
      !WriteVec(out, landmarks_) || !WriteVec(out, dist_from_) ||
      !WriteVec(out, dist_to_)) {
    return Status::IoError("write failed for " + path);
  }
  return Status::Ok();
}

Result<LandmarkIndex> LandmarkIndex::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  uint64_t magic = 0;
  NodeId num_nodes = 0;
  std::vector<NodeId> landmarks;
  std::vector<uint32_t> dist_from;
  std::vector<uint32_t> dist_to;
  if (!ReadPod(in, magic) || magic != kMagic) {
    return Status::Corruption(path + ": bad magic");
  }
  if (!ReadPod(in, num_nodes) || !ReadVec(in, landmarks) ||
      !ReadVec(in, dist_from) || !ReadVec(in, dist_to)) {
    return Status::Corruption(path + ": truncated");
  }
  Result<LandmarkIndex> index =
      FromParts(num_nodes, std::move(landmarks), std::move(dist_from),
                std::move(dist_to));
  if (!index.ok()) {
    return Status::Corruption(path + ": " + index.status().message());
  }
  return index;
}

Result<LandmarkIndex> LandmarkIndex::FromParts(NodeId num_nodes,
                                               std::vector<NodeId> landmarks,
                                               ArrayRef<uint32_t> dist_from,
                                               ArrayRef<uint32_t> dist_to) {
  const size_t expect = landmarks.size() * static_cast<size_t>(num_nodes);
  if (dist_from.size() != expect || dist_to.size() != expect) {
    return Status::Corruption("landmark table size mismatch");
  }
  for (NodeId l : landmarks) {
    if (l >= num_nodes) {
      return Status::Corruption("landmark id out of range");
    }
  }
  LandmarkIndex index;
  index.num_nodes_ = num_nodes;
  index.landmarks_ = std::move(landmarks);
  index.dist_from_ = std::move(dist_from);
  index.dist_to_ = std::move(dist_to);
  return index;
}

}  // namespace kpj
