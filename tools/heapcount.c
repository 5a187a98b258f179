/* heapcount: an LD_PRELOAD heap counter for glibc.
 *
 * Interposes malloc, free, calloc, realloc and the aligned allocators,
 * delegates each call to glibc's own (__libc_*) implementation, and at
 * exit prints to stderr:
 *   - the process's allocation and free counts;
 *   - its live-heap peak and its live heap at exit, in usable bytes
 *     (malloc_usable_size, which includes each chunk's rounding);
 *   - per thread, in order of each thread's first allocation: the
 *     kernel thread id and the thread's allocation and free counts.
 *
 * The peak is the largest sum of live usable bytes the program held at
 * any instant. Beside a process's peak RSS it shows how much of that
 * RSS is heap the allocator kept mapped without the program holding
 * it (the rest of the gap is code, stacks and other mappings).
 *
 * Build and run (see EXPERIMENTS.md, note 9):
 *   cc -O2 -shared -fPIC -o heapcount.so tools/heapcount.c
 *   LD_PRELOAD=$PWD/heapcount.so HEAPCOUNT_COMM=perfbench \
 *       python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20
 *
 * LD_PRELOAD reaches every process the command starts. With
 * HEAPCOUNT_COMM set, only a process whose name (/proc/self/comm)
 * equals it prints its report.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <malloc.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <unistd.h>

extern void* __libc_malloc(size_t size);
extern void __libc_free(void* ptr);
extern void* __libc_calloc(size_t count, size_t size);
extern void* __libc_realloc(void* ptr, size_t size);
extern void* __libc_memalign(size_t align, size_t size);

/* Threads past the table's size share its last row. */
#define MAX_THREADS 512

struct thread_row {
  _Atomic long tid;
  _Atomic unsigned long allocs;
  _Atomic unsigned long frees;
};

static struct thread_row rows[MAX_THREADS];
static _Atomic int rows_used;
static _Atomic long live_bytes;
static _Atomic long peak_bytes;

/* initial-exec: reading it must not allocate (it runs inside malloc). */
static __thread int my_row __attribute__((tls_model("initial-exec"))) = -1;

static struct thread_row* row(void) {
  if (my_row < 0) {
    int i = atomic_fetch_add(&rows_used, 1);
    if (i >= MAX_THREADS) i = MAX_THREADS - 1;
    atomic_store(&rows[i].tid, (long)syscall(SYS_gettid));
    my_row = i;
  }
  return &rows[my_row];
}

static void note_alloc(void* p) {
  if (p == NULL) return;
  atomic_fetch_add_explicit(&row()->allocs, 1, memory_order_relaxed);
  const long size = (long)malloc_usable_size(p);
  const long live =
      atomic_fetch_add_explicit(&live_bytes, size, memory_order_relaxed) +
      size;
  long peak = atomic_load_explicit(&peak_bytes, memory_order_relaxed);
  while (live > peak &&
         !atomic_compare_exchange_weak_explicit(&peak_bytes, &peak, live,
                                                memory_order_relaxed,
                                                memory_order_relaxed)) {
  }
}

static void note_free(void* p) {
  if (p == NULL) return;
  atomic_fetch_add_explicit(&row()->frees, 1, memory_order_relaxed);
  atomic_fetch_sub_explicit(&live_bytes, (long)malloc_usable_size(p),
                            memory_order_relaxed);
}

void* malloc(size_t size) {
  void* p = __libc_malloc(size);
  note_alloc(p);
  return p;
}

void free(void* ptr) {
  note_free(ptr);
  __libc_free(ptr);
}

void* calloc(size_t count, size_t size) {
  void* p = __libc_calloc(count, size);
  note_alloc(p);
  return p;
}

void* realloc(void* ptr, size_t size) {
  /* Counted as a free of the old block and an allocation of the new. */
  const long old = ptr ? (long)malloc_usable_size(ptr) : 0;
  void* p = __libc_realloc(ptr, size);
  if (ptr != NULL && (p != NULL || size == 0)) {
    atomic_fetch_add_explicit(&row()->frees, 1, memory_order_relaxed);
    atomic_fetch_sub_explicit(&live_bytes, old, memory_order_relaxed);
  }
  note_alloc(p);
  return p;
}

void* memalign(size_t align, size_t size) {
  void* p = __libc_memalign(align, size);
  note_alloc(p);
  return p;
}

void* aligned_alloc(size_t align, size_t size) {
  return memalign(align, size);
}

int posix_memalign(void** out, size_t align, size_t size) {
  if (align < sizeof(void*) || (align & (align - 1)) != 0) return EINVAL;
  void* p = memalign(align, size);
  if (p == NULL) return ENOMEM;
  *out = p;
  return 0;
}

void* valloc(size_t size) { return memalign((size_t)getpagesize(), size); }

static int should_report(void) {
  const char* want = getenv("HEAPCOUNT_COMM");
  if (want == NULL || *want == '\0') return 1;
  char comm[64] = {0};
  FILE* f = fopen("/proc/self/comm", "r");
  if (f == NULL) return 0;
  const int ok = fgets(comm, sizeof comm, f) != NULL;
  fclose(f);
  if (!ok) return 0;
  comm[strcspn(comm, "\n")] = '\0';
  return strcmp(comm, want) == 0;
}

__attribute__((destructor)) static void report(void) {
  if (!should_report()) return;
  const int used = atomic_load(&rows_used) < MAX_THREADS
                       ? atomic_load(&rows_used)
                       : MAX_THREADS;
  unsigned long allocs = 0, frees = 0;
  for (int i = 0; i < used; ++i) {
    allocs += atomic_load(&rows[i].allocs);
    frees += atomic_load(&rows[i].frees);
  }
  const double mib = 1024.0 * 1024.0;
  fprintf(stderr,
          "heapcount: pid %ld: %lu allocs, %lu frees, live-heap peak %.2f "
          "MiB, live at exit %.2f MiB, %d threads\n",
          (long)getpid(), allocs, frees, atomic_load(&peak_bytes) / mib,
          atomic_load(&live_bytes) / mib, used);
  for (int i = 0; i < used; ++i) {
    fprintf(stderr, "heapcount:   thread %ld: %lu allocs, %lu frees\n",
            atomic_load(&rows[i].tid), atomic_load(&rows[i].allocs),
            atomic_load(&rows[i].frees));
  }
}
