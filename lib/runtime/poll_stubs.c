/* Minimal ppoll(2) binding for the live event loop.
 *
 * The timeout is a whole number of microseconds, passed to ppoll as a
 * struct timespec with a null signal mask (the loop blocks no signals).
 * poll(2) takes whole milliseconds, so a timer due in 0.3 ms would sleep
 * a full millisecond, and on the live backend timers sit on the abcast
 * critical path (batch flush, open-loop generator, session retry
 * timers).  ppoll wakes at the next engine timer to within the kernel's
 * timer slack, which Linux defaults to 50 us; the first wait sets it to
 * 1 ns (prctl PR_SET_TIMERSLACK, where the platform has it), because
 * open-loop live runs time each message from its due time and the slack
 * lands on every timer-driven send.
 *
 * The caller keeps three parallel arrays (fds, events, revents) alive
 * across iterations; this stub copies the first [nfds] entries into a
 * C pollfd array, releases the OCaml runtime lock around the blocking
 * ppoll, and writes revents back after reacquiring it.  The copy-in /
 * copy-out is mandatory: the GC may move the OCaml arrays while the
 * lock is released.
 *
 * EINTR is reported as 0 ("no descriptor ready"): the loop re-evaluates
 * its timers and waits again.  Every other error (EINVAL, ENOMEM,
 * EFAULT) raises Unix.Unix_error, so a broken pollset fails loudly
 * instead of spinning as "nothing ready" until the deadline.
 */

#define _GNU_SOURCE
#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <time.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#define ICS_POLL_STACK_FDS 64

/* Once per process: the loop runs on one thread, and the slack is a
   property of the calling thread. */
static void ics_set_timer_slack(void)
{
#ifdef PR_SET_TIMERSLACK
  static int done = 0;
  if (!done) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    done = 1;
  }
#endif
}

/* The calling thread's timer slack in nanoseconds, or -1 where the
   platform cannot report it. */
CAMLprim value ics_timer_slack_ns_stub(value unit)
{
  (void)unit;
#ifdef PR_GET_TIMERSLACK
  return Val_long(prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL));
#else
  return Val_long(-1);
#endif
}

CAMLprim value ics_ppoll_stub(value v_fds, value v_events, value v_revents,
                              value v_nfds, value v_timeout_us)
{
  CAMLparam5(v_fds, v_events, v_revents, v_nfds, v_timeout_us);
  long nfds = Long_val(v_nfds);
  long timeout_us = Long_val(v_timeout_us);
  struct pollfd stack_pfds[ICS_POLL_STACK_FDS];
  struct pollfd *pfds = stack_pfds;
  struct timespec ts;
  long i;
  int ret, err;

  if (nfds < 0 || (mlsize_t)nfds > Wosize_val(v_fds) ||
      (mlsize_t)nfds > Wosize_val(v_events) ||
      (mlsize_t)nfds > Wosize_val(v_revents))
    caml_invalid_argument("ics_ppoll: nfds exceeds array size");
  if (timeout_us < 0) caml_invalid_argument("ics_ppoll: negative timeout");

  if (nfds > ICS_POLL_STACK_FDS) {
    pfds = malloc(nfds * sizeof(struct pollfd));
    if (pfds == NULL) caml_raise_out_of_memory();
  }

  for (i = 0; i < nfds; i++) {
    pfds[i].fd = Int_val(Field(v_fds, i));
    pfds[i].events = (short)Int_val(Field(v_events, i));
    pfds[i].revents = 0;
  }

  ics_set_timer_slack();
  ts.tv_sec = timeout_us / 1000000;
  ts.tv_nsec = (timeout_us % 1000000) * 1000;

  caml_enter_blocking_section();
  ret = ppoll(pfds, (nfds_t)nfds, &ts, NULL);
  err = errno;
  caml_leave_blocking_section();

  if (ret >= 0)
    for (i = 0; i < nfds; i++)
      Field(v_revents, i) = Val_int(pfds[i].revents);

  if (pfds != stack_pfds) free(pfds);
  if (ret < 0) {
    if (err == EINTR) CAMLreturn(Val_int(0));
    caml_unix_error(err, "ppoll", Nothing);
  }
  CAMLreturn(Val_int(ret));
}
