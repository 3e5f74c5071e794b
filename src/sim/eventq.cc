#include "eventq.hh"

#include "logging.hh"

namespace svb
{

void
EventQueue::schedule(Tick when, const char *name, Callback cb)
{
    svb_assert(when >= _curTick, "scheduling event '", name,
               "' in the past: ", when, " < ", _curTick);
    events.push({when, nextSeq++, name, std::move(cb)});
}

size_t
EventQueue::serviceDue(Tick now)
{
    svb_assert(now >= _curTick, "time moving backwards");
    size_t serviced = 0;
    while (!events.empty() && events.top().when <= now) {
        // Copy out before popping: the callback may schedule new events.
        ScheduledEvent ev = events.top();
        events.pop();
        _curTick = ev.when;
        ev.cb();
        ++serviced;
    }
    _curTick = now;
    return serviced;
}

Tick
EventQueue::nextEventTick() const
{
    return events.empty() ? maxTick : events.top().when;
}

void
EventQueue::clear()
{
    while (!events.empty())
        events.pop();
}

} // namespace svb
