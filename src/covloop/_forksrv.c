/* Fork server linked, uninstrumented, into every C target covloop builds.

   Started by covloop with COVLOOP_FORKSRV=<control fd>,<status fd> in its
   environment, the binary never reaches main in its first process: this
   constructor runs after libc and gcov have started, and serves tests until
   the control pipe closes. Without that variable it returns at once and the
   binary runs as a plain program. The protocol is described in testserver.py.

   A target may define any external name, `read` or `kill` among them, and
   the static link would bind a call here to the target's definition. So
   everything below is static and calls only syscall(2), except fork, which
   stays libc's so that libc resets its per-process state in the child.
   Compiling this file should take no more memory than compiling a target,
   so it is kept small and includes only the syscall numbers; the constants
   below are the same on every Linux architecture. Needs Linux 5.3 or later
   (pidfd_open). */
#include <sys/syscall.h>

long syscall(long number, ...);
int fork(void);

#define SIGKILL 9
#define POLLIN 1
#define PR_SET_PDEATHSIG 1

struct pollfd { int fd; short events, revents; };
struct timespec { long tv_sec, tv_nsec; };

/* Moves `size` bytes; nonzero at end of file or on an error. */
static int transfer(long sysno, int fd, void *buf, long size) {
    for (long n; size > 0; size -= n, buf = (char *)buf + n)
        if ((n = syscall(sysno, fd, buf, size)) <= 0)
            return 1;
    return 0;
}

__attribute__((constructor)) static void covloop_forksrv(int argc, char **argv, char **envp) {
    static const char name[] = "COVLOOP_FORKSRV=";
    int fds[2] = {-1, -1}; /* control, status */
    (void)argc;
    (void)argv;
    for (char **entry = envp; *entry; entry++) {
        const char *p = *entry, *q = name;
        while (*q && *p == *q)
            p++, q++;
        if (*q)
            continue;
        for (int k = 0; k < 2; k++, p++) /* p++ passes the ',' */
            for (fds[k] = 0; *p >= '0' && *p <= '9'; p++)
                fds[k] = fds[k] * 10 + *p - '0';
        for (; *entry; entry++) /* remove the entry: the target does not see it */
            entry[0] = entry[1];
        break;
    }
    if (fds[1] < 0)
        return;
    struct timespec timeout;
    int go[2], reply[2], pid; /* reply: wait status, timed out */
    char byte = 'g';
    /* One go pipe per child, so a child that died before its go byte cannot
       leave that byte to the next one. */
    while (!syscall(SYS_pipe2, go, 0) && (pid = fork()) >= 0) {
        if (pid == 0) {
            /* The pre-forked child: one test, in a process group of its own,
               killed if the server dies before it. */
            syscall(SYS_setpgid, 0, 0);
            syscall(SYS_prctl, PR_SET_PDEATHSIG, SIGKILL);
            syscall(SYS_close, fds[0]);
            syscall(SYS_close, fds[1]);
            syscall(SYS_close, go[1]);
            if (transfer(SYS_read, go[0], &byte, 1))
                break; /* covloop closed the control pipe */
            syscall(SYS_close, go[0]);
            return; /* on to main */
        }
        syscall(SYS_close, go[0]);
        if (transfer(SYS_read, fds[0], &timeout, sizeof timeout)) {
            syscall(SYS_close, go[1]); /* the idle child reads end of file */
            syscall(SYS_wait4, pid, reply, 0, 0);
            break;
        }
        /* Readable once the child has exited, before it is reaped. */
        struct pollfd exited = {(int)syscall(SYS_pidfd_open, pid, 0), POLLIN, 0};
        if (exited.fd < 0 || transfer(SYS_write, go[1], &byte, 1))
            break;
        syscall(SYS_close, go[1]);
        reply[1] = syscall(SYS_ppoll, &exited, 1, &timeout, 0, 0) != 1;
        syscall(SYS_close, exited.fd);
        /* Kill what is left of the test, then reap it: its group id cannot
           have been reused while the child is unreaped. */
        syscall(SYS_kill, pid, SIGKILL); /* in case it left its group */
        syscall(SYS_kill, -pid, SIGKILL);
        reply[0] = 0;
        syscall(SYS_wait4, pid, reply, 0, 0);
        if (transfer(SYS_write, fds[1], reply, sizeof reply))
            break;
    }
    for (;;) /* not exit(): gcov's exit handler would write a .gcda */
        syscall(SYS_exit_group, 0);
}
