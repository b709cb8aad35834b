// Backward-sweep engines (docs/AUTOGRAD.md).
//
// Two engines produce bit-identical gradients from the same tape:
//
//  - The sequential replay walks the tape linearly in reverse topological
//    order on the calling thread (the original engine). It is kept as the
//    test oracle (RunBackwardSequentialForTesting).
//  - The ready-queue engine, behind every RunBackward, turns the same
//    reverse-topological order into a dependency-counted task graph: every
//    gradient edge (consumer, argument index) gets its own accumulation
//    slot, numbered in the exact order the sequential engine would have
//    accumulated contributions, and a node becomes runnable when all of its
//    slots are filled. The caller and idle ThreadPool workers pop ready
//    nodes, run their grad_fn, fill parent slots, and enqueue newly-ready
//    parents — so independent branches of one sweep run concurrently, and
//    several sweeps over a shared read-only tape overlap at node
//    granularity.
//
// Determinism: a node's merged gradient is slot[0] plus the remaining slots
// added in slot order — byte-for-byte the sequence of AddInPlace calls the
// sequential engine performs — so scheduling (pool size, pop order, helper
// count) can never change a single bit. The same recipe (fixed decomposition,
// ordered merge) backs the parallel_for kernels; see docs/AUTOGRAD.md.

#include "autograd/executor.h"

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/mutex.h"
#include "base/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace mocograd {
namespace autograd {

namespace {

// Iterative post-order DFS over the requires_grad subgraph reachable from
// `root`: parents appear before their users, so the reversed vector is the
// processing order of the sequential engine and the node numbering of the
// ready-queue engine. Both engines share this one traversal so their
// accumulation orders can never drift apart.
std::vector<Node*> TopoPostOrder(Node* root) {
  std::vector<Node*> order;
  // Membership test only; traversal order comes from the explicit stack and
  // the `order` vector. mg_analyze:allow(nondeterminism)
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0});
  visited.insert(root);
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      Node* parent = f.node->parents[f.next_parent++].get();
      if (parent->requires_grad && !visited.count(parent)) {
        visited.insert(parent);
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }
  return order;
}

// Where one sweep's gradients land, resolved on the calling thread before
// any node runs, so workers only read it. Persistent mode (Backward) feeds
// every reached node's own grad buffer, interior nodes included, so users
// can inspect them. Leaf mode (BackwardInto) feeds each reached leaf's
// span and never writes the tape, so concurrent sweeps over one tape share
// no mutable state.
struct Destinations {
  bool persistent = false;
  // Leaf mode: one span per reached node, indexed by post-order position;
  // nullptr for interior nodes.
  std::vector<float*> spans;
};

// The op that consumes `leaf` in the sweep, for diagnostics.
const char* ConsumerOp(const std::vector<Node*>& order, const Node* leaf) {
  for (const Node* n : order) {
    for (const auto& p : n->parents) {
      if (p.get() == leaf) return n->op;
    }
  }
  return "(root)";
}

// Leaf mode over caller-owned spans: every reached leaf must have one, so
// a gradient is never dropped silently.
Destinations ResolveDestinations(const std::vector<Node*>& order,
                                 const Variable::LeafGrads& leaves) {
  Destinations d;
  d.spans.assign(order.size(), nullptr);
  for (size_t i = 0; i < order.size(); ++i) {
    const Node* n = order[i];
    if (n->grad_fn) continue;
    // Lookup only. mg_analyze:allow(nondeterminism)
    auto it = leaves.find(n);
    MG_CHECK(it != leaves.end(), "BackwardInto: a leaf of shape ",
             n->value.shape().ToString(), " consumed by op ",
             ConsumerOp(order, n), " has no LeafGrads entry");
    d.spans[i] = it->second;
  }
  return d;
}

// The GradSink adapter: each reached leaf's span is its sink tensor, zero-
// allocated here on the calling thread when the sink has none yet (so a
// reused sink keeps accumulating). `sink == nullptr` selects persistent
// mode.
Destinations ResolveDestinations(const std::vector<Node*>& order,
                                 Variable::GradSink* sink) {
  if (sink == nullptr) return Destinations{/*persistent=*/true, {}};
  Variable::LeafGrads leaves;  // mg_analyze:allow(nondeterminism)
  for (Node* n : order) {
    if (n->grad_fn) continue;
    Tensor& slot = (*sink)[n];  // mg_analyze:allow(nondeterminism)
    if (!slot.defined()) slot = Tensor::Zeros(n->value.shape());
    leaves.emplace(n, slot.data());
  }
  return ResolveDestinations(order, leaves);
}

// Feeds node `n` (post-order position `pos`) its merged gradient `g`. A
// zeroed span plus AddInPlace leaves the same bits as Tensor::Zeros plus
// AddInPlace, so both modes store identical values.
void AccumulateDestination(const Destinations& d, size_t pos, Node* n,
                           const Tensor& g) {
  if (d.persistent) {
    if (!n->grad.defined()) n->grad = Tensor::Zeros(n->value.shape());
    tops::AddInPlace(n->grad, g);
  } else if (float* span = d.spans[pos]) {
    tops::AddInPlace(span, g.data(), g.NumElements());
  }
}

void CheckParentGrad(const Node* n, const Node* p, const Tensor& pg) {
  MG_CHECK(pg.defined(), "grad_fn of ", n->op,
           " returned undefined grad for a requires_grad parent");
  MG_CHECK(pg.shape() == p->value.shape(), "grad shape mismatch in op ",
           n->op, ": ", pg.shape().ToString(), " vs ",
           p->value.shape().ToString());
}

// ---------------------------------------------------------------------------
// Sequential engine: linear tape replay (the original BackwardImpl).
// ---------------------------------------------------------------------------

void RunSequential(const std::vector<Node*>& order, const Tensor& seed,
                   const Destinations& dest) {
  Node* root = order.back();

  // Per-sweep upstream accumulators, separate from node->grad so that
  // repeated Backward calls on different roots (per-task losses) compose via
  // += on leaves only, while interior nodes get a fresh accumulator.
  // `owned` tracks whether the stored tensor is private to this sweep: the
  // first contribution is adopted by move, and grad_fns may return tensors
  // aliasing their upstream gradient (e.g. the SumToShape pass-through in
  // the broadcast ops), so the accumulator is cloned before the first
  // in-place add mutates it — a sibling slot may still read that storage.
  // Clone-then-add leaves the same bits as add-in-place, so this changes
  // nothing on alias-free graphs.
  struct Acc {
    Tensor grad;
    bool owned = false;
  };
  // Keyed lookup only; the sweep walks `order`, never this map, so hash
  // order cannot affect accumulation order. mg_analyze:allow(nondeterminism)
  std::unordered_map<Node*, Acc> upstream;
  upstream.reserve(order.size());
  upstream[root] = Acc{seed.Clone(), /*owned=*/true};

  // `order` is post-order: parents before users; traverse in reverse.
  for (size_t pos = order.size(); pos-- > 0;) {
    Node* n = order[pos];
    auto found = upstream.find(n);
    if (found == upstream.end()) continue;  // unreachable from the seed
    Tensor& g = found->second.grad;

    AccumulateDestination(dest, pos, n, g);

    if (!n->grad_fn) continue;
    std::vector<Tensor> parent_grads = n->grad_fn(g);
    MG_CHECK_EQ(parent_grads.size(), n->parents.size(), "grad_fn arity in op ",
                n->op);
    for (size_t i = 0; i < n->parents.size(); ++i) {
      Node* p = n->parents[i].get();
      if (!p->requires_grad) continue;
      Tensor& pg = parent_grads[i];
      CheckParentGrad(n, p, pg);
      auto slot = upstream.find(p);
      if (slot == upstream.end()) {
        upstream.emplace(p, Acc{std::move(pg), /*owned=*/false});
      } else {
        Acc& acc = slot->second;
        if (!acc.owned) {
          acc.grad = acc.grad.Clone();
          acc.owned = true;
        }
        tops::AddInPlace(acc.grad, pg);
      }
    }
    upstream.erase(found);
  }
}

// ---------------------------------------------------------------------------
// Ready-queue engine: dependency-counted concurrent execution.
// ---------------------------------------------------------------------------

// One node of the dependency graph. `pending` is guarded by GraphTask::mu;
// everything else is written once during the build pass and read-only during
// execution.
struct NodeTask {
  Node* node = nullptr;
  // Incoming gradient contributions (edges from consumers), numbered in the
  // sequential engine's accumulation order: consumers by ascending
  // reverse-topological position, arguments by ascending index.
  int num_inputs = 0;
  int pending = 0;
  int64_t first_slot = 0;
  // Per-op duration histogram, resolved once per sweep iff metrics are on.
  obs::Histogram* op_hist = nullptr;
  struct Edge {
    int32_t target = -1;  // index into GraphTask::tasks; -1 = no grad needed
    int32_t slot = 0;     // contribution slot within the target
  };
  std::vector<Edge> edges;  // one per node->parents entry, same order
};

// One in-flight backward sweep. Shared (via shared_ptr) with helper tasks on
// the pool so a straggling helper that wakes after the sweep finished still
// finds valid synchronization state. Slot tensors are published to the
// consumer's merge by the mu acquire/release pair around the pending
// decrement and the ready pop.
struct GraphTask {
  std::vector<NodeTask> tasks;  // index = reverse-topological position
  std::vector<Tensor> slots;    // fixed per-edge accumulation slots
  Destinations dest;            // indexed by post-order position
  // Pinned on the calling thread at build time. Workers must never call
  // ThreadPool::Global() — it locks the global pool mutex, which
  // SetGlobalNumThreads holds while joining workers, so a straggling helper
  // that reaches for the global accessor after its sweep finished would
  // deadlock the resize. Submitting to the pinned pool is safe even during
  // its shutdown: workers drain the queue before joining.
  ThreadPool* pool = nullptr;

  Mutex mu;
  CondVar cv;
  std::vector<int32_t> ready MG_GUARDED_BY(mu);  // pop order is free (LIFO)
  int64_t remaining MG_GUARDED_BY(mu) = 0;    // nodes not yet completed
  int executing MG_GUARDED_BY(mu) = 0;        // nodes currently running
  int helpers_inflight MG_GUARDED_BY(mu) = 0;
  int max_helpers = 0;
  bool canceled MG_GUARDED_BY(mu) = false;
  std::exception_ptr error MG_GUARDED_BY(mu);  // first failure wins
  obs::Histogram* depth_hist = nullptr;
};

std::shared_ptr<GraphTask> BuildGraphTask(const std::vector<Node*>& order,
                                          const Tensor& seed,
                                          Destinations dest) {
  auto gt = std::make_shared<GraphTask>();
  const size_t n = order.size();
  gt->tasks.resize(n);
  // Node -> reverse-topological index. Keyed lookup only during the build;
  // never iterated. mg_analyze:allow(nondeterminism)
  std::unordered_map<const Node*, int32_t> index;
  index.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Node* nd = order[n - 1 - i];  // tasks[0] is the root
    gt->tasks[i].node = nd;
    index.emplace(nd, static_cast<int32_t>(i));
  }

  // Number the gradient edges in the sequential engine's accumulation
  // order: walking tasks by ascending index visits consumers in exactly the
  // order the linear replay does, and arguments ascend within a consumer —
  // so slot k of a node is its (k+1)-th sequential contribution.
  for (size_t i = 0; i < n; ++i) {
    NodeTask& t = gt->tasks[i];
    if (!t.node->grad_fn) continue;  // leaves contribute nothing upstream
    const auto& parents = t.node->parents;
    t.edges.resize(parents.size());
    for (size_t a = 0; a < parents.size(); ++a) {
      Node* p = parents[a].get();
      if (!p->requires_grad) continue;
      auto it = index.find(p);
      MG_CHECK(it != index.end(), "parent of ", t.node->op,
               " missing from the sweep");
      NodeTask& pt = gt->tasks[it->second];
      t.edges[a].target = it->second;
      t.edges[a].slot = pt.num_inputs++;
    }
  }

  // The root's single input is the seed (it has no consumers inside the
  // sweep: the DFS only walks parents, and a parent edge back to the root
  // would be a cycle).
  gt->tasks[0].num_inputs += 1;

  int64_t total_slots = 0;
  for (NodeTask& t : gt->tasks) {
    t.first_slot = total_slots;
    total_slots += t.num_inputs;
    t.pending = t.num_inputs;
  }
  gt->slots.resize(total_slots);
  gt->slots[gt->tasks[0].first_slot] = seed.Clone();
  gt->tasks[0].pending = 0;
  {
    // No worker has seen `gt` yet; the lock only satisfies the guarded-field
    // annotations (uncontended, build pass only).
    MutexLock lk(&gt->mu);
    gt->remaining = static_cast<int64_t>(n);
    gt->ready.push_back(0);
  }
  gt->dest = std::move(dest);
  gt->pool = &ThreadPool::Global();
  gt->max_helpers = gt->pool->num_threads() - 1;

  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    gt->depth_hist = reg.GetHistogram("autograd.ready_queue.depth");
    for (NodeTask& t : gt->tasks) {
      t.op_hist =
          reg.GetHistogram(std::string("autograd.node.") + t.node->op +
                           ".seconds");
    }
  }
  return gt;
}

void HelperLoop(const std::shared_ptr<GraphTask>& gt);

// Spawns up to `newly_ready` helpers (bounded by the pool size) to drain the
// queue alongside the current thread. Called with gt->mu held; returns how
// many Submit calls the caller must make after releasing the lock.
int ReserveHelpers(GraphTask& gt, int newly_ready) MG_REQUIRES(gt.mu) {
  int spawn = gt.max_helpers - gt.helpers_inflight;
  if (spawn > newly_ready) spawn = newly_ready;
  if (spawn < 0) spawn = 0;
  gt.helpers_inflight += spawn;
  return spawn;
}

// Executes one ready node: merge its input slots in fixed slot order, feed
// the merged gradient to the destination and the grad_fn, distribute parent
// contributions into their slots, then publish completion under the lock.
void ProcessNode(const std::shared_ptr<GraphTask>& gt, int32_t ti) {
  GraphTask& g_task = *gt;
  NodeTask& t = g_task.tasks[ti];
  Node* nd = t.node;

  int newly_ready = 0;
  try {
    obs::TraceScope node_span(
        obs::TracingEnabled() ? std::string("autograd.node.") + nd->op
                              : std::string());
    obs::ScopedTimer op_timer(t.op_hist);

    // Merge contributions in slot order: adopt slot 0 (the contribution the
    // sequential engine receives first), then add the rest in order — the
    // identical AddInPlace sequence, hence identical bits. The clone guards
    // the in-place adds against grad_fn-returned tensors that alias storage
    // a sibling slot still reads (see RunSequential).
    Tensor* slots = &g_task.slots[t.first_slot];
    Tensor merged = std::move(slots[0]);
    MG_CHECK(merged.defined(), "empty contribution slot for ", nd->op);
    if (t.num_inputs > 1) {
      merged = merged.Clone();
      for (int j = 1; j < t.num_inputs; ++j) {
        tops::AddInPlace(merged, slots[j]);
        slots[j] = Tensor();
      }
    }

    // tasks[ti] is order[n - 1 - ti] (tasks[0] is the root).
    AccumulateDestination(g_task.dest, g_task.tasks.size() - 1 - ti, nd,
                          merged);

    if (nd->grad_fn) {
      std::vector<Tensor> parent_grads = nd->grad_fn(merged);
      MG_CHECK_EQ(parent_grads.size(), nd->parents.size(),
                  "grad_fn arity in op ", nd->op);
      for (size_t a = 0; a < t.edges.size(); ++a) {
        const NodeTask::Edge& e = t.edges[a];
        if (e.target < 0) continue;
        Tensor& pg = parent_grads[a];
        CheckParentGrad(nd, g_task.tasks[e.target].node, pg);
        // Plain write: the consumer reads it only after observing this
        // node's pending-decrement under mu below.
        g_task.slots[g_task.tasks[e.target].first_slot + e.slot] =
            std::move(pg);
      }
    }
  } catch (...) {
    MutexLock lk(&g_task.mu);
    if (!g_task.error) g_task.error = std::current_exception();
    g_task.canceled = true;
    g_task.ready.clear();
  }

  int spawn = 0;
  bool should_notify = false;
  {
    MutexLock lk(&g_task.mu);
    if (nd->grad_fn && !g_task.canceled) {
      for (const NodeTask::Edge& e : t.edges) {
        if (e.target < 0) continue;
        if (--g_task.tasks[e.target].pending == 0) {
          g_task.ready.push_back(e.target);
          ++newly_ready;
        }
      }
    }
    --g_task.remaining;
    --g_task.executing;
    if (g_task.depth_hist != nullptr) {
      g_task.depth_hist->Record(static_cast<double>(g_task.ready.size()));
    }
    // The caller keeps popping on its own; helpers add concurrency only
    // when one completion exposes several ready branches at once.
    if (newly_ready > 1) spawn = ReserveHelpers(g_task, newly_ready - 1);
    // The caller blocks only when the queue is empty and nodes are in
    // flight; wake it exactly when this completion can change its predicate.
    should_notify = newly_ready > 0 || g_task.remaining == 0 ||
                    (g_task.canceled && g_task.executing == 0);
  }
  if (should_notify) g_task.cv.NotifyAll();
  // Submit through the pinned pool, never ThreadPool::Global(): this runs on
  // worker threads, possibly as a straggler after the sweep's caller already
  // returned, and the global accessor's mutex is held across worker joins by
  // SetGlobalNumThreads (see GraphTask::pool).
  for (int i = 0; i < spawn; ++i) {
    g_task.pool->Submit([gt] { HelperLoop(gt); });
  }
}

// Pool-worker drain loop: claim ready nodes until the queue is momentarily
// empty, then exit. Helpers never block — the graph's forward progress is
// guaranteed by whichever threads are executing nodes, and the sweep's
// caller re-spawns helpers as new branches open up.
void HelperLoop(const std::shared_ptr<GraphTask>& gt) {
  for (;;) {
    int32_t ti;
    {
      MutexLock lk(&gt->mu);
      if (gt->canceled || gt->ready.empty()) {
        --gt->helpers_inflight;
        return;
      }
      ti = gt->ready.back();
      gt->ready.pop_back();
      ++gt->executing;
    }
    ProcessNode(gt, ti);
  }
}

void RunReadyQueue(const std::vector<Node*>& order, const Tensor& seed,
                   Destinations dest) {
  MG_TRACE_SCOPE("autograd.ready_queue");
  MG_METRIC_COUNT("autograd.sweeps.ready", 1);
  std::shared_ptr<GraphTask> gt =
      BuildGraphTask(order, seed, std::move(dest));

  // The caller is a full participant: it pops ready nodes like a helper but,
  // unlike helpers, blocks when the queue is empty while other threads still
  // execute nodes (their completion is the only event that can make more
  // work or finish the sweep, and they always notify). With a pool of one
  // participant there are no helpers and this degenerates to an inline
  // serial drain — no waits, no notifies observed.
  for (;;) {
    int32_t ti = -1;
    {
      MutexLock lk(&gt->mu);
      while (gt->ready.empty() && gt->remaining != 0 &&
             !(gt->canceled && gt->executing == 0)) {
        gt->cv.Wait(gt->mu);
      }
      if (gt->remaining == 0 || gt->canceled) break;
      ti = gt->ready.back();
      gt->ready.pop_back();
      ++gt->executing;
    }
    ProcessNode(gt, ti);
  }

  // Straggler helpers only touch the (shared_ptr-kept) GraphTask after this
  // point — every node completed before remaining hit zero, so the caller's
  // destinations are fully written.
  std::exception_ptr error;
  {
    MutexLock lk(&gt->mu);
    error = gt->error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace

void RunBackward(Node* root, const Tensor& seed, Variable::GradSink* sink) {
  const std::vector<Node*> order = TopoPostOrder(root);
  RunReadyQueue(order, seed, ResolveDestinations(order, sink));
}

void RunBackward(Node* root, const Tensor& seed,
                 const Variable::LeafGrads& leaves) {
  const std::vector<Node*> order = TopoPostOrder(root);
  RunReadyQueue(order, seed, ResolveDestinations(order, leaves));
}

void RunBackwardSequentialForTesting(Node* root, const Tensor& seed,
                                     Variable::GradSink* sink) {
  const std::vector<Node*> order = TopoPostOrder(root);
  RunSequential(order, seed, ResolveDestinations(order, sink));
}

}  // namespace autograd
}  // namespace mocograd
