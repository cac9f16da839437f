#ifndef VPART_UTIL_PARALLEL_H_
#define VPART_UTIL_PARALLEL_H_

#include <functional>

namespace vpart {

/// std::thread::hardware_concurrency with a floor of 1.
int DefaultThreadCount();

/// Blocks until fn(i) ran for every i in [0, n). The caller is one worker
/// and runs index 0; min(threads, n) - 1 std::threads are the others, so
/// one thread starts none. Indices go out in ascending order from one
/// shared counter; a thread that fails to start leaves its indices to the
/// workers that did. The first exception fn throws is rethrown once every
/// worker joined, and no index is handed out after it.
///
/// Every call starts and joins its own threads, so fan-outs nest (daemon
/// worker -> batch tables -> portfolio lanes -> B&B workers) without a
/// shared pool a blocked caller could starve.
void ParallelFor(int n, int threads, const std::function<void(int)>& fn);

}  // namespace vpart

#endif  // VPART_UTIL_PARALLEL_H_
