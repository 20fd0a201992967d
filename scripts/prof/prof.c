// A sampling profiler for a single-threaded process, as an LD_PRELOAD
// library: SIGPROF on a CPU-time interval timer, a frame-pointer walk from
// the interrupted context bounded by the main thread's stack, and at exit
// /proc/self/maps plus the raw stacks in one text file for sym.py.
//
//   gcc -O2 -shared -fPIC -o prof.so prof.c
//   PROF_OUT=run.prof LD_PRELOAD=$PWD/prof.so ./binary args…
//
// The binary must keep frame pointers (RUSTFLAGS="-C force-frame-pointers=yes").
// A sample taken inside a function that does not (most of libc: malloc,
// memcpy, libm) loses that function's caller, and the whole stack when the
// function uses the frame register for something else — on fedbench a fifth
// to a quarter of the samples end in libc, the allocator's share of every
// profile among them. Those are recovered: when the walk finds no frame at
// all and the pc is outside the binary, the stack is scanned upward from
// the interrupted sp for the first word that is a return address into the
// binary's text *and* sits in a frame whose frame-pointer chain runs at
// least RECOVER_CHAIN frames on; that chain is recorded under the leaf and
// the sample counted as recovered in the file's header. A stale return
// address left in a dead frame can pass for a live one — the chain rule
// makes that rare, not impossible — so read a recovered caller as "called
// from about here". The libc frames between the leaf and the binary are
// not recorded. PROF_HZ sets the rate (default 250 samples per CPU second).
// x86-64 and aarch64 Linux.
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 96
#define RECOVER_CHAIN 5     // frames a scanned-for chain must run on
#define RECOVER_WORDS 4096u // stack words scanned above sp: 32 KiB
#define CAPACITY (4u << 20) // words: 32 MiB of address space, touched as used

static uintptr_t *buf;       // samples: depth, then `depth` addresses, leaf first
static volatile size_t used; // words written
static uintptr_t stack_lo, stack_hi;
static uintptr_t text_lo, text_hi; // the profiled binary's executable mappings
static char binary[4096];
static unsigned long dropped, recovered;

// Walks the frame-pointer chain from `fp` into `out`, at most `room`
// return addresses. A frame is [saved fp, return address]; frames only
// ever move up the stack, so a pointer that does not is not a frame and
// ends the walk. Everything between `floor` and the stack's top is mapped.
static size_t walk(uintptr_t fp, uintptr_t floor, uintptr_t *out, size_t room) {
    size_t n = 0;
    while (n < room && fp >= floor && fp + 16 <= stack_hi && fp % 8 == 0) {
        uintptr_t ret = ((uintptr_t *)fp)[1];
        if (ret < 4096)
            break;
        out[n++] = ret;
        floor = fp + 16;
        fp = ((uintptr_t *)fp)[0];
    }
    return n;
}

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    ucontext_t *uc = ctx;
#if defined(__x86_64__)
    uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP], fp = uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
#elif defined(__aarch64__)
    uintptr_t pc = uc->uc_mcontext.pc, fp = uc->uc_mcontext.regs[29], sp = uc->uc_mcontext.sp;
#else
#error "prof.c walks x86-64 and aarch64 frames only"
#endif
    if (used + MAX_DEPTH + 1 > CAPACITY) {
        dropped++;
        return;
    }
    uintptr_t *sample = buf + used;
    sample[1] = pc;
    uintptr_t floor = sp >= stack_lo ? sp : stack_hi;
    size_t depth = 1 + walk(fp, floor, sample + 2, MAX_DEPTH - 1);
    if (depth == 1 && !(text_lo <= pc && pc < text_hi) && floor < stack_hi) {
        // No frame at all, in someone else's code: look for the caller.
        uintptr_t *word = (uintptr_t *)((floor + 7) & ~(uintptr_t)7);
        uintptr_t *end = (uintptr_t *)stack_hi;
        if ((size_t)(end - word) > RECOVER_WORDS)
            end = word + RECOVER_WORDS;
        // `word` as a return address makes `word - 1` its frame.
        for (word++; word < end; word++) {
            if (*word < text_lo || *word >= text_hi)
                continue;
            size_t chain = walk((uintptr_t)(word - 1), floor, sample + 2, MAX_DEPTH - 1);
            if (chain >= RECOVER_CHAIN) {
                depth = 1 + chain;
                recovered++;
                break;
            }
        }
    }
    sample[0] = depth;
    used += depth + 1;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "prof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    fprintf(out, "--- samples (leaf first); dropped %lu; recovered %lu; binary %s\n", dropped,
            recovered, binary);
    for (size_t i = 0; i < used; i += buf[i] + 1) {
        for (size_t k = 1; k <= buf[i]; k++)
            fprintf(out, k == 1 ? "%lx" : " %lx", (unsigned long)buf[i + k]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    // The constructor runs on the main thread: its stack is the mapping
    // that holds this frame.
    uintptr_t here = (uintptr_t)__builtin_frame_address(0);
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    ssize_t len = readlink("/proc/self/exe", binary, sizeof binary - 1);
    binary[len > 0 ? len : 0] = 0;
    while (maps && fgets(line, sizeof line, maps)) {
        unsigned long lo, hi;
        char perms[8];
        if (sscanf(line, "%lx-%lx %7s", &lo, &hi, perms) != 3)
            continue;
        if (lo <= here && here < hi)
            stack_lo = lo, stack_hi = hi;
        // The binary's text: its executable mappings, taken as one range.
        char *path = strchr(line, '/');
        if (path && perms[2] == 'x' && binary[0] && strncmp(path, binary, strlen(binary)) == 0 &&
            path[strlen(binary)] == '\n') {
            text_lo = text_lo && text_lo < lo ? text_lo : lo;
            text_hi = text_hi > hi ? text_hi : hi;
        }
    }
    if (maps)
        fclose(maps);
    buf = mmap(NULL, CAPACITY * sizeof *buf, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED || !stack_hi)
        return;
    // The stack grows down and the kernel extends its mapping as it does:
    // the top is fixed, the bottom is wherever the limit lets it reach.
    struct rlimit lim;
    uintptr_t reach = 1ul << 30;
    if (getrlimit(RLIMIT_STACK, &lim) == 0 && lim.rlim_cur != RLIM_INFINITY)
        reach = lim.rlim_cur;
    stack_lo = stack_hi > reach ? stack_hi - reach : 0;
    atexit(dump);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    const char *hz_env = getenv("PROF_HZ");
    long hz = hz_env ? atol(hz_env) : 250;
    if (hz < 2 || hz > 10000)
        hz = 250;
    struct itimerval every = {{0, 1000000 / hz}, {0, 1000000 / hz}};
    setitimer(ITIMER_PROF, &every, NULL);
}
