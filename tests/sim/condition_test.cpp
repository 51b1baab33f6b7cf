#include "sim/condition.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace gbc::sim {
namespace {

TEST(Condition, NotifyAllWakesEveryWaiter) {
  Engine eng;
  Condition cv(eng);
  int woke = 0;
  for (int i = 0; i < 5; ++i) {
    eng.spawn([](Condition& c, int& n) -> Task<void> {
      co_await c.wait();
      ++n;
    }(cv, woke));
  }
  eng.schedule_at(10, [&] { cv.notify_all(); });
  eng.run();
  EXPECT_EQ(woke, 5);
  EXPECT_EQ(eng.now(), 10);
}

TEST(Condition, NotifyOneWakesExactlyOne) {
  Engine eng;
  Condition cv(eng);
  int woke = 0;
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](Condition& c, int& n) -> Task<void> {
      co_await c.wait();
      ++n;
    }(cv, woke));
  }
  eng.schedule_at(5, [&] { cv.notify_one(); });
  eng.run_until(6);
  EXPECT_EQ(woke, 1);
  eng.schedule_now([&] { cv.notify_all(); });
  eng.run();
  EXPECT_EQ(woke, 3);
}

TEST(Condition, NotifyWithNoWaitersIsHarmless) {
  Engine eng;
  Condition cv(eng);
  cv.notify_all();
  cv.notify_one();
  eng.run();
  SUCCEED();
}

TEST(Condition, WaitersWakeInFifoOrder) {
  Engine eng;
  Condition cv(eng);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    eng.spawn([](Condition& c, std::vector<int>& ord, int id) -> Task<void> {
      co_await c.wait();
      ord.push_back(id);
    }(cv, order, i));
  }
  eng.schedule_at(1, [&] { cv.notify_all(); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Condition, WaitUntilChecksPredicateBeforeWaiting) {
  Engine eng;
  Condition cv(eng);
  bool flag = true;
  bool done = false;
  eng.spawn([](Condition& c, bool& f, bool& d) -> Task<void> {
    co_await c.wait_until([&f] { return f; });
    d = true;
  }(cv, flag, done));
  EXPECT_TRUE(done);  // never suspended
  eng.run();
}

TEST(Condition, WaitUntilLoopsAcrossSpuriousNotifies) {
  Engine eng;
  Condition cv(eng);
  int value = 0;
  Time done_at = -1;
  eng.spawn([](Engine& e, Condition& c, int& v, Time& d) -> Task<void> {
    co_await c.wait_until([&v] { return v >= 3; });
    d = e.now();
  }(eng, cv, value, done_at));
  for (Time t = 10; t <= 40; t += 10) {
    eng.schedule_at(t, [&] {
      ++value;
      cv.notify_all();
    });
  }
  eng.run();
  EXPECT_EQ(done_at, 30);
}

TEST(Condition, WaitForReturnsTrueWhenNotifiedFirst) {
  Engine eng;
  Condition cv(eng);
  bool notified = false;
  eng.spawn([](Condition& c, bool& out) -> Task<void> {
    out = co_await c.wait_for(100);
  }(cv, notified));
  eng.schedule_at(50, [&] { cv.notify_all(); });
  eng.run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(eng.now(), 100);  // the stale timer still drains
}

TEST(Condition, WaitForReturnsFalseOnTimeout) {
  Engine eng;
  Condition cv(eng);
  bool notified = true;
  Time woke_at = -1;
  eng.spawn([](Engine& e, Condition& c, bool& out, Time& at) -> Task<void> {
    out = co_await c.wait_for(100);
    at = e.now();
  }(eng, cv, notified, woke_at));
  eng.run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(woke_at, 100);
}

TEST(Condition, WaitForTimedOutWaiterIgnoresLaterNotify) {
  Engine eng;
  Condition cv(eng);
  int wakes = 0;
  eng.spawn([](Condition& c, int& n) -> Task<void> {
    (void)co_await c.wait_for(10);
    ++n;
  }(cv, wakes));
  eng.schedule_at(50, [&] { cv.notify_all(); });
  eng.run();
  EXPECT_EQ(wakes, 1);
}

}  // namespace
}  // namespace gbc::sim
