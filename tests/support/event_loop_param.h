// The server suites' single test parameter. The server has one epoll
// event loop; the suites that once ran on two event backends stay
// parameterized over this one value so their test ids
// ("Backends/<Suite>.<Test>/epoll", "Schedules/ChaosTest.<Test>/
// <schedule>_epoll") stay stable for tools that track tests by name.

#ifndef WATCHMAN_TESTS_SUPPORT_EVENT_LOOP_PARAM_H_
#define WATCHMAN_TESTS_SUPPORT_EVENT_LOOP_PARAM_H_

#include <gtest/gtest.h>

#include <string>

namespace watchman {

enum class EventLoop : int { kEpoll = 0 };

inline const char* EventLoopName(EventLoop) { return "epoll"; }

inline std::string EventLoopParamName(
    const testing::TestParamInfo<EventLoop>& info) {
  return EventLoopName(info.param);
}

}  // namespace watchman

#endif  // WATCHMAN_TESTS_SUPPORT_EVENT_LOOP_PARAM_H_
