/*
 * sigprof: a sampling profiler for boxes without perf.
 *
 * Preloaded into any dynamically linked program, it arms ITIMER_PROF at
 * 250 Hz of process CPU time, records the interrupted instruction pointer
 * of every tick into a fixed buffer, and at exit writes the samples plus
 * /proc/self/maps to $SIGPROF_OUT (default ./sigprof.out). report.py turns
 * that into per-function and per-line shares with addr2line.
 *
 *   cc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   SIGPROF_OUT=run.prof LD_PRELOAD=$PWD/sigprof.so ./program args...
 *
 * The handler only stores one word into preallocated memory, so it is
 * async-signal-safe; a full buffer drops further samples (and says so).
 * One flat profile for the whole process: the tick lands on whichever
 * thread is consuming CPU, which is what a share-of-process answer needs.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 20)
#define HZ 250

static uintptr_t samples[MAX_SAMPLES];
static volatile uint32_t n_samples;
static volatile uint32_t n_dropped;

static void on_tick(int sig, siginfo_t *info, void *raw)
{
    (void)sig;
    (void)info;
    ucontext_t *uc = (ucontext_t *)raw;
#if defined(__x86_64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sigprof: add the program-counter register of this architecture"
#endif
    uint32_t slot = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (slot < MAX_SAMPLES)
        samples[slot] = pc;
    else
        __atomic_fetch_add(&n_dropped, 1, __ATOMIC_RELAXED);
}

__attribute__((constructor)) static void sigprof_start(void)
{
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0)
        return;
    struct itimerval tick;
    tick.it_interval.tv_sec = 0;
    tick.it_interval.tv_usec = 1000000 / HZ;
    tick.it_value = tick.it_interval;
    setitimer(ITIMER_PROF, &tick, NULL);
}

__attribute__((destructor)) static void sigprof_dump(void)
{
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);

    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path && *path ? path : "sigprof.out", "w");
    if (!out)
        return;
    uint32_t n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    fprintf(out, "# sigprof hz=%d samples=%u dropped=%u\n", HZ, n, n_dropped);
    for (uint32_t i = 0; i < n; i++)
        fprintf(out, "%lx\n", (unsigned long)samples[i]);
    fprintf(out, "# maps\n");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps))
            fputs(line, out);
        fclose(maps);
    }
    fclose(out);
}
