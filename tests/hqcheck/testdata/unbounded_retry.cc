// Exercises the unbounded-retry rule: hand-rolled retry loops that sleep
// between I/O attempts must use common::RetryPolicy instead.

void BadWhileRetry(Store& store) {
  while (true) {
    if (store.Put("key", data).ok()) break;
    std::this_thread::sleep_for(backoff);
  }
}

void BadForRetry(Cdw* cdw) {
  for (int attempt = 0;; ++attempt) {
    auto result = cdw->ExecuteSql(sql);
    if (result.ok()) return;
    usleep(1000);
  }
}

void GoodPolicyRetry(Store& store) {
  common::RetryPolicy policy(options);
  while (pending) {
    auto s = policy.Run("objstore.put", [&](const common::RetryAttempt&) {
      return store.Put("key", data);
    });
    if (s.ok()) break;
    std::this_thread::sleep_for(poll_interval);
  }
}

void SanctionedPollLoop(Queue& queue) {
  // hqcheck:allow(unbounded-retry)
  while (!queue.Get(&item).ok()) {
    std::this_thread::sleep_for(poll);
  }
}

void SleepOnlyLoop() {
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(tick);
  }
}

void IoOnlyLoop(Store& store) {
  for (const auto& key : keys) {
    store.Put(key, data).IgnoreError();
  }
}
