/**
 * @file
 * How sns-serve and sns-router wait for their stop signal.
 *
 * blockStopSignals() runs first in main(), before the daemon starts a
 * thread: SIGTERM and SIGINT are blocked, every thread started later
 * inherits the mask, and a stop signal stays pending until
 * waitForStopSignal() takes it with sigwait(2). A signal that arrives
 * while the daemon is still starting up therefore waits for the drain
 * instead of killing the process. SIGPIPE is ignored: a vanished
 * client is routine.
 */

#ifndef SNS_TOOLS_DAEMON_SIGNALS_HH
#define SNS_TOOLS_DAEMON_SIGNALS_HH

#include <csignal>

#include <pthread.h>

namespace sns {

/** Block SIGTERM/SIGINT in this thread and every thread it starts
 * later, and ignore SIGPIPE. Returns the blocked set. */
inline sigset_t
blockStopSignals()
{
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGTERM);
    sigaddset(&signals, SIGINT);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);
    std::signal(SIGPIPE, SIG_IGN);
    return signals;
}

/** Wait for one signal of `signals` and return its number. */
inline int
waitForStopSignal(const sigset_t &signals)
{
    int sig = 0;
    while (sigwait(&signals, &sig) != 0) {
    }
    return sig;
}

} // namespace sns

#endif // SNS_TOOLS_DAEMON_SIGNALS_HH
