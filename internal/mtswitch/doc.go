// Package mtswitch solves the fully synchronized multi-task Switch
// problem (MT-Switch) of Lange & Middendorf: given m tasks, each with a
// length-n sequence of context requirements over its local switches,
// choose when each task performs a local (partial) hyperreconfiguration
// and which hypercontext it installs, minimizing the total
// (hyper)reconfiguration time
//
//	Σ_i ( combine_j I_{j,i}·v_j  +  combine_j |h_{j,i}| )
//
// where combine is max for task-parallel uploads and Σ for
// task-sequential ones.
//
// The paper's Theorem 1 states the task-parallel problem is solvable in
// polynomial time by dynamic programming but omits the algorithm.  This
// package reconstructs an exact solver:
//
//   - SolveExact: forward dynamic program whose states are the vectors
//     of per-task current hypercontexts, restricted (without loss of
//     optimality) to canonical candidates — unions of requirement runs
//     starting at the task's last hyperreconfiguration — with joint-key
//     deduplication and Pareto dominance pruning (state A dominates B
//     when every per-task hypercontext of A is a subset of B's and A is
//     no more expensive).  Exact for both upload modes; worst-case
//     exponential like the paper's own bound O(m n⁴ l^{2m}), fast in
//     practice because distinct interval unions per task are bounded by
//     the task's switch count.  When every task has the same v and
//     hyperreconfigurations upload task-parallel, some optimal schedule
//     is aligned, and SolveExact answers with SolveAligned instead.
//   - SolveAligned: O(n²) DP over schedules where all tasks
//     hyperreconfigure together — the natural generalization of the
//     single-task DP, an upper-bound baseline in general, and the
//     optimum when the tasks share one v under task-parallel
//     hyperreconfiguration uploads.
//   - BruteForce: exhaustive reference over all joint
//     hyperreconfiguration masks (tiny instances, used by tests).
//   - LowerBound: per-instance admissible bound.
//   - SolvePrivateGlobal: the private-global-resource extension — an
//     outer DP chooses global hyperreconfiguration windows (each paying
//     W and reassigning the private switches), the local solver prices
//     each window with the private requirements appended to the tasks'
//     local universes, and window feasibility requires the tasks'
//     private unions to be pairwise disjoint.
package mtswitch
