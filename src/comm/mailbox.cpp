#include "comm/mailbox.hpp"

#include <chrono>
#include <stdexcept>

#include "fault/fault.hpp"
#include "runtime/cluster.hpp"

namespace tsr::comm {

namespace {
constexpr std::size_t kSlabNodes = 64;
}

Mailbox::~Mailbox() {
  // Drain queued messages back into the free list so their payloads release;
  // the slabs then own every node and free them wholesale.
  for (Queue& q : queues_) {
    for (Node* n = q.head; n != nullptr;) {
      Node* next = n->next;
      n->msg = Message{};
      n = next;
    }
  }
}

Mailbox::Node* Mailbox::alloc_node() {
  if (free_nodes_ != nullptr) {
    Node* n = free_nodes_;
    free_nodes_ = n->next;
    n->next = nullptr;
    return n;
  }
  if (slabs_.empty() || slab_used_ == kSlabNodes) {
    slabs_.push_back(std::make_unique<Node[]>(kSlabNodes));
    slab_used_ = 0;
  }
  return &slabs_.back()[slab_used_++];
}

void Mailbox::free_node(Node* n) {
  n->msg = Message{};  // drop the payload reference now, not at reuse time
  n->next = free_nodes_;
  free_nodes_ = n;
}

Mailbox::Queue* Mailbox::find_queue(int src, std::uint64_t tag) {
  for (Queue& q : queues_) {
    if (q.live && q.src == src && q.tag == tag) return &q;
  }
  return nullptr;
}

Mailbox::Queue* Mailbox::find_or_add_queue(int src, std::uint64_t tag) {
  Queue* dead = nullptr;
  for (Queue& q : queues_) {
    if (q.live) {
      if (q.src == src && q.tag == tag) return &q;
    } else if (dead == nullptr) {
      dead = &q;
    }
  }
  if (dead == nullptr) {
    queues_.emplace_back();
    dead = &queues_.back();
  }
  dead->src = src;
  dead->tag = tag;
  dead->head = dead->tail = nullptr;
  dead->live = true;
  return dead;
}

void Mailbox::push(Message msg) {
  rt::FiberWaiter to_wake;
  bool notify = false;
  {
    std::lock_guard lock(mu_);
    Queue* q = find_or_add_queue(msg.src, msg.tag);
    Node* n = alloc_node();
    n->msg = std::move(msg);
    if (q->tail != nullptr) {
      q->tail->next = n;
    } else {
      q->head = n;
    }
    q->tail = n;
    if (has_waiter_ && waiter_src_ == q->src && waiter_tag_ == q->tag) {
      has_waiter_ = false;
      if (fiber_waiter_.armed()) {
        to_wake = fiber_waiter_;
        fiber_waiter_.clear();
      } else {
        notify = true;
      }
    }
  }
  if (to_wake.armed()) {
    to_wake.sched->wake(to_wake.rank);
  } else if (notify) {
    cv_.notify_one();
  }
}

Message Mailbox::pop(int src, std::uint64_t tag) {
  std::unique_lock lock(mu_);
  // Host-time receive deadline (fault::FaultPlan::recv_timeout_ms); only the
  // OS-thread wait paths below can honor it.
  const bool timed = recv_timeout_ms_ > 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(timed ? recv_timeout_ms_ : 0);
  for (;;) {
    // A structured peer failure outranks queued messages and plain poison:
    // every survivor must surface the same failed-rank set at its next
    // receive, not consume leftovers from a rank that is already dead.
    if (failure_ != nullptr) {
      throw fault::PeerFailure(*failure_);
    }
    if (poisoned_) {
      throw std::runtime_error("Mailbox poisoned: " + poison_reason_);
    }
    if (Queue* q = find_queue(src, tag)) {
      Node* n = q->head;
      q->head = n->next;
      if (q->head == nullptr) {
        q->tail = nullptr;
        q->live = false;  // slot stays for reuse
      }
      Message msg = std::move(n->msg);
      free_node(n);
      return msg;
    }
    has_waiter_ = true;
    waiter_src_ = src;
    waiter_tag_ = tag;
    if (rt::FiberScheduler* sched = rt::current_scheduler()) {
      fiber_waiter_.sched = sched;
      fiber_waiter_.rank = sched->current_rank();
      // Release the lock across the suspension. A push from another worker
      // may land between the unlock and the context switch; the scheduler's
      // fiber state machine turns that into a pending wake, so
      // block_current() then returns immediately instead of losing it.
      lock.unlock();
      sched->block_current();
      lock.lock();
      // Wakeups may be cancellations: an all-ranks-blocked cycle (detected
      // by the global quiescence check across all workers) means no
      // matching message can ever arrive. A posted peer failure is not a
      // deadlock — fall through so the loop top reports PeerFailure.
      if (sched->cancelled() && !poisoned_ && failure_ == nullptr &&
          find_queue(src, tag) == nullptr) {
        has_waiter_ = false;
        fiber_waiter_.clear();
        throw std::runtime_error(
            "Mailbox poisoned: deadlock — every rank is blocked in a "
            "receive with no message in flight");
      }
      // A push that matched us disarmed the waiter; clear any stale state
      // from e.g. a poison wake or a spurious pending-wake consumption.
      has_waiter_ = false;
      fiber_waiter_.clear();
    } else if (rt::BlockedSlot* slot = rt::current_blocked_slot()) {
      // Thread backend under the deadlock watchdog: publish what this rank
      // waits on and poll the cancel flag alongside the condition so a
      // cluster deadlock throws (with the watchdog's dump) instead of
      // hanging the process.
      slot->begin_wait(src, tag);
      while (!poisoned_ && failure_ == nullptr &&
             find_queue(src, tag) == nullptr) {
        if (slot->cancel.load()) {
          // Re-check under the lock: an injected rank kill posts the
          // failure and the watchdog may fire in the same instant. The
          // structured PeerFailure (loop top) must win over the watchdog's
          // blocked-rank dump.
          if (failure_ != nullptr) break;
          slot->end_wait();
          has_waiter_ = false;
          throw std::runtime_error(*slot->report.load());
        }
        if (timed && std::chrono::steady_clock::now() >= deadline) {
          slot->end_wait();
          has_waiter_ = false;
          throw fault::RecvTimeout(src, tag, recv_timeout_ms_);
        }
        cv_.wait_for(lock, std::chrono::milliseconds(20));
      }
      slot->end_wait();
      has_waiter_ = false;
    } else {
      if (timed) {
        const bool ok = cv_.wait_until(lock, deadline, [&] {
          return poisoned_ || failure_ != nullptr ||
                 find_queue(src, tag) != nullptr;
        });
        if (!ok) {
          has_waiter_ = false;
          throw fault::RecvTimeout(src, tag, recv_timeout_ms_);
        }
      } else {
        cv_.wait(lock, [&] {
          return poisoned_ || failure_ != nullptr ||
                 find_queue(src, tag) != nullptr;
        });
      }
      has_waiter_ = false;
    }
  }
}

void Mailbox::poison(const std::string& why) {
  rt::FiberWaiter to_wake;
  {
    std::lock_guard lock(mu_);
    poisoned_ = true;
    poison_reason_ = why;
    if (fiber_waiter_.armed()) {
      to_wake = fiber_waiter_;
      fiber_waiter_.clear();
      has_waiter_ = false;
    }
  }
  if (to_wake.armed()) to_wake.sched->wake(to_wake.rank);
  cv_.notify_all();
}

void Mailbox::poison_failure(
    std::shared_ptr<const std::vector<int>> failed_ranks) {
  rt::FiberWaiter to_wake;
  {
    std::lock_guard lock(mu_);
    failure_ = std::move(failed_ranks);
    if (fiber_waiter_.armed()) {
      to_wake = fiber_waiter_;
      fiber_waiter_.clear();
      has_waiter_ = false;
    }
  }
  if (to_wake.armed()) to_wake.sched->wake(to_wake.rank);
  cv_.notify_all();
}

void Mailbox::set_recv_timeout_ms(int ms) {
  std::lock_guard lock(mu_);
  recv_timeout_ms_ = ms;
}

int Mailbox::recv_timeout_ms() const {
  std::lock_guard lock(mu_);
  return recv_timeout_ms_;
}

std::size_t Mailbox::pending() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const Queue& q : queues_) {
    for (const Node* node = q.head; node != nullptr; node = node->next) ++n;
  }
  return n;
}

}  // namespace tsr::comm
