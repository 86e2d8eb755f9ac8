#include "event_queue.hh"

namespace salam
{

Event::~Event()
{
    // An event must not be destroyed while scheduled; the queue would
    // be left holding a dangling pointer. Lambda events owned by the
    // queue are destroyed only after they are serviced or skipped.
    SALAM_ASSERT(!_scheduled);
}

namespace
{

/**
 * Slow path of the host-limit backstop: terminate the run when the
 * bound SimContext's cancel flag is raised or its point deadline has
 * passed. This is the only hang guard that works when the simulated
 * clock is frozen (an event rescheduling itself at the same tick):
 * a sentinel scheduled at curTick + window never fires there, but
 * events keep being serviced, so this check still runs.
 */
void
checkHostLimits()
{
    SimContext &ctx = SimContext::current();
    if (ctx.cancelRequested()) {
        ctx.setFatalOutcome("skipped");
        fatal("simulation cancelled (shutdown requested)");
    }
    std::uint64_t deadline = ctx.pointDeadlineNs();
    if (deadline != 0 && obs::hostNowNs() > deadline) {
        ctx.setFatalOutcome("timeout");
        fatal("point deadline exceeded (event-loop backstop)");
    }
}

/** Events serviced between host-limit checks (power of two). */
constexpr std::uint64_t hostLimitStride = 4096;

} // namespace

EventQueue::~EventQueue()
{
    drainAll();
}

void
EventQueue::drainAll()
{
    // Drain remaining entries, releasing queue-owned lambdas.
    while (!queue.empty()) {
        Entry entry = queue.top();
        queue.pop();
        Event *ev = entry.event;
        if (ev->_scheduled && ev->_sequence == entry.sequence) {
            ev->_scheduled = false;
            if (ev->_queueOwned)
                delete ev;
        }
    }
}

void
EventQueue::schedule(Event *event, Tick when)
{
    SALAM_ASSERT(event != nullptr);
    if (event->_scheduled)
        panic("event '%s' scheduled twice", event->name().c_str());
    if (when < _curTick)
        panic("event '%s' scheduled in the past (%llu < %llu)",
              event->name().c_str(),
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_curTick));

    event->_scheduled = true;
    event->_when = when;
    event->_sequence = nextSequence++;
    queue.push(Entry{when, event->priority(), event->_sequence, event});
    if (queue.size() > maxDepth)
        maxDepth = queue.size();
}

void
EventQueue::deschedule(Event *event)
{
    SALAM_ASSERT(event != nullptr);
    if (!event->_scheduled)
        panic("descheduling unscheduled event '%s'",
              event->name().c_str());
    // Lazy removal: clearing the flag makes the queue entry stale.
    event->_scheduled = false;
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    if (event->_scheduled)
        deschedule(event);
    schedule(event, when);
}

void
EventQueue::schedule(Tick when, std::function<void()> callback,
                     std::string name, obs::HostPhase host_phase)
{
    auto *event = new EventFunctionWrapper(std::move(callback),
                                           std::move(name),
                                           Event::defaultPri, host_phase);
    event->_queueOwned = true;
    schedule(event, when);
    ++liveLambdas;
}

bool
EventQueue::step()
{
    while (!queue.empty()) {
        Entry entry = queue.top();
        queue.pop();
        Event *ev = entry.event;

        // Skip entries invalidated by deschedule()/reschedule().
        if (!ev->_scheduled || ev->_sequence != entry.sequence) {
            if (!ev->_scheduled && ev->_queueOwned)
                delete ev;
            continue;
        }

        SALAM_ASSERT(entry.when >= _curTick);
        _curTick = entry.when;
        ev->_scheduled = false;
        SALAM_TRACE_AT(Event, _curTick, "event_queue",
                       "service '%s' (pri %d, %zu queued)",
                       ev->name().c_str(), ev->priority(),
                       queue.size());
        ev->process();
        ++serviced;
        if (ev->_queueOwned && !ev->_scheduled) {
            delete ev;
            --liveLambdas;
        }
        return true;
    }
    return false;
}

Tick
EventQueue::run(Tick limit)
{
    obs::HostTelemetry *tel =
        SimContext::current().hostTelemetry();
    std::uint64_t until_check = hostLimitStride;
    if (tel == nullptr) {
        while (!queue.empty()) {
            if (queue.top().when > limit)
                break;
            step();
            if (--until_check == 0) {
                until_check = hostLimitStride;
                checkHostLimits();
            }
        }
        return _curTick;
    }

    // Batched wall-time attribution: the clock is read only when the
    // phase of the next event differs from the running phase, so long
    // runs of same-class events (engine ticks, memory responses) cost
    // roughly one clock read per phase *transition* rather than two
    // per event. Queue bookkeeping between events of one phase is
    // attributed to that phase; the pre-first-event and residual time
    // lands in EventLoop.
    constexpr unsigned n = obs::numHostPhases;
    std::uint64_t nanos[n] = {};
    std::uint64_t counts[n] = {};
    obs::HostPhase current = obs::HostPhase::EventLoop;
    std::uint64_t stamp = obs::hostNowNs();
    while (!queue.empty()) {
        Entry top = queue.top();
        // Drop stale entries here so the classification below always
        // sees the event step() will actually service (step() skips
        // them too; this mirrors its logic).
        if (!top.event->_scheduled ||
            top.event->_sequence != top.sequence) {
            queue.pop();
            if (!top.event->_scheduled && top.event->_queueOwned)
                delete top.event;
            continue;
        }
        if (top.when > limit)
            break;
        obs::HostPhase phase = top.event->hostPhase();
        if (phase != current) {
            std::uint64_t now = obs::hostNowNs();
            nanos[static_cast<unsigned>(current)] += now - stamp;
            stamp = now;
            current = phase;
        }
        ++counts[static_cast<unsigned>(phase)];
        step();
        if (--until_check == 0) {
            until_check = hostLimitStride;
            checkHostLimits();
        }
    }
    nanos[static_cast<unsigned>(current)] +=
        obs::hostNowNs() - stamp;
    for (unsigned i = 0; i < n; ++i) {
        if (nanos[i] != 0 || counts[i] != 0)
            tel->addPhaseTime(static_cast<obs::HostPhase>(i),
                              nanos[i], counts[i]);
    }
    return _curTick;
}

} // namespace salam
