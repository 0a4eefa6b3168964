/* Leaf-PC SIGPROF sampler, preloaded into any dynamically linked program:
 *
 *   gcc -O2 -shared -fPIC -o sampler.so sampler.c
 *   OMS_PROF_OUT=samples.txt LD_PRELOAD=$PWD/sampler.so oms map ...
 *
 * Every millisecond of CPU time (ITIMER_PROF) the handler stores the
 * interrupted program counter; at exit each sample is appended to
 * $OMS_PROF_OUT as "<object> <offset into it, hex>", which `fold.py` turns
 * into phases. Samples in no loaded object (the vDSO) are written as "?". */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long pcs[MAX_SAMPLES];
static size_t count;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    if (count < MAX_SAMPLES)
        pcs[count++] = ((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction action = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &action, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

static FILE *out;
static char exe[4096];
static char *found;

/* Writes every sample that falls into one of the object's loaded segments. */
static int write_object(struct dl_phdr_info *object, size_t size, void *unused) {
    (void)size, (void)unused;
    const char *name = object->dlpi_name[0] ? object->dlpi_name : exe;
    for (int p = 0; p < object->dlpi_phnum; p++) {
        const ElfW(Phdr) *segment = &object->dlpi_phdr[p];
        unsigned long low = object->dlpi_addr + segment->p_vaddr;
        for (size_t i = 0; segment->p_type == PT_LOAD && i < count; i++)
            if (!found[i] && pcs[i] >= low && pcs[i] - low < segment->p_memsz) {
                fprintf(out, "%s %lx\n", name, pcs[i] - object->dlpi_addr);
                found[i] = 1;
            }
    }
    return 0;
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("OMS_PROF_OUT");
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (!path || len < 0 || !(out = fopen(path, "a")) || !(found = calloc(count + 1, 1)))
        return;
    exe[len] = 0;
    dl_iterate_phdr(write_object, NULL);
    for (size_t i = 0; i < count; i++)
        if (!found[i])
            fprintf(out, "? 0\n");
    fclose(out);
}
