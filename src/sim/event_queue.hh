/**
 * @file
 * The event-driven simulation core: Event and EventQueue.
 *
 * The EventQueue is a priority queue of Events ordered by (tick,
 * priority, insertion order). The simulation advances by servicing the
 * head event, which may schedule further events. Insertion order breaks
 * ties so that simulation is fully deterministic.
 */

#ifndef SALAM_SIM_EVENT_QUEUE_HH
#define SALAM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "logging.hh"
#include "obs/host_telemetry.hh"
#include "types.hh"

namespace salam
{

class EventQueue;

/**
 * An event that can be scheduled on an EventQueue. Subclasses override
 * process(). EventFunctionWrapper adapts a lambda or member function.
 *
 * An Event object may only be on the queue once at a time; it can be
 * rescheduled after it fires. The scheduling object owns the Event.
 */
class Event
{
  public:
    /** Lower priority values are serviced first within a tick. */
    enum Priority : int
    {
        memoryResponsePri = -10,
        defaultPri = 0,
        cpuTickPri = 10,
    };

    explicit Event(std::string name, int priority = defaultPri,
                   obs::HostPhase host_phase = obs::HostPhase::EventLoop)
        : _name(std::move(name)), _priority(priority),
          _hostPhase(host_phase)
    {}

    virtual ~Event();

    /** The action performed when the event fires. */
    virtual void process() = 0;

    const std::string &name() const { return _name; }

    int priority() const { return _priority; }

    /**
     * Host-telemetry class this event's process() time is attributed
     * to (engine scheduling, memory modeling, ...). Fixed at
     * construction; EventLoop for unclassified events.
     */
    obs::HostPhase hostPhase() const { return _hostPhase; }

    bool scheduled() const { return _scheduled; }

    /** Tick this event is scheduled for; valid only when scheduled. */
    Tick when() const { return _when; }

  private:
    friend class EventQueue;

    std::string _name;
    int _priority;
    obs::HostPhase _hostPhase = obs::HostPhase::EventLoop;
    bool _scheduled = false;
    /** Created by schedule(Tick, fn); the queue deletes it. */
    bool _queueOwned = false;
    Tick _when = 0;
    std::uint64_t _sequence = 0;
};

/** Adapts a std::function to the Event interface. */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> callback, std::string name,
                         int priority = defaultPri,
                         obs::HostPhase host_phase = obs::HostPhase::EventLoop)
        : Event(std::move(name), priority, host_phase),
          callback(std::move(callback))
    {}

    void process() override { callback(); }

  private:
    std::function<void()> callback;
};

/**
 * Deterministic event queue. Also supports one-shot lambdas scheduled
 * directly with schedule(tick, fn), which the queue owns.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue();

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /** Schedule an externally-owned event at an absolute tick. */
    void schedule(Event *event, Tick when);

    /** Remove a scheduled event from the queue without firing it. */
    void deschedule(Event *event);

    /** Deschedule (if needed) and schedule at a new tick. */
    void reschedule(Event *event, Tick when);

    /** Schedule a one-shot callback owned by the queue. */
    void schedule(Tick when, std::function<void()> callback,
                  std::string name = "lambda",
                  obs::HostPhase host_phase = obs::HostPhase::EventLoop);

    /** True when no events remain. */
    bool empty() const { return queue.empty(); }

    std::size_t size() const { return queue.size(); }

    /**
     * Service events until the queue is empty or the time limit is
     * exceeded.
     *
     * @param limit Stop before servicing events beyond this tick.
     * @return The tick of the last serviced event.
     */
    Tick run(Tick limit = maxTick);

    /** Service exactly one event. @return false if the queue is empty. */
    bool step();

    /**
     * Pop every pending entry without firing it, clearing the
     * events' scheduled flags and releasing queue-owned lambdas.
     * ~Simulation calls this before destroying SimObjects so that a
     * simulation abandoned mid-run (a FatalError unwinding out of
     * run() on a timeout or cancellation) does not destroy objects
     * whose member events are still scheduled.
     */
    void drainAll();

    /** Number of events serviced since construction. */
    std::uint64_t numServiced() const { return serviced; }

    /** High-water mark of the event heap (scheduling pressure). */
    std::size_t maxHeapDepth() const { return maxDepth; }

  private:
    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t sequence;
        Event *event;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (priority != o.priority)
                return priority > o.priority;
            return sequence > o.sequence;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    Tick _curTick = 0;
    std::uint64_t nextSequence = 0;
    std::uint64_t serviced = 0;
    std::uint64_t liveLambdas = 0;
    std::size_t maxDepth = 0;
};

} // namespace salam

#endif // SALAM_SIM_EVENT_QUEUE_HH
