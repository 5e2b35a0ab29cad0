// mail_session: the paper's decomposed mail client (ui, imap, tls, render,
// addressbook, storage on a microkernel) against a provider whose inbox the
// seed fills. Every session is fresh -- new machine, kernel, disk, server
// and client -- so the working set never depends on how fast the code runs.
#include <stdexcept>

#include "legacy/filesystem.h"
#include "mail/client.h"
#include "mail/imap.h"
#include "mail/message.h"
#include "microkernel/microkernel.h"
#include "rig.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace lateral;

constexpr std::size_t kInbox = 64;
// Each session runs exactly this mix, in a seeded order, so the work per
// session does not swing with the seed. The ratio is an assumption of this
// benchmark (mostly reading, some writing, a few searches); no measured mail
// trace backs it. README.md gives each kind's measured share of session time.
constexpr std::size_t kReads = 48;
constexpr std::size_t kSearches = 3;
constexpr std::size_t kComposes = 13;
constexpr std::size_t kVocabulary = 256;
constexpr std::size_t kMarkerChars = 12;
// Bodies are drawn from 200 B up to this. A message whose wire form exceeds
// the mail manifest's 4096 B channel message limit makes sync_inbox fail with
// invalid_argument, which happens from about 3.95 KiB of body on.
constexpr std::size_t kMaxBody = 3900;

class MailSession final : public Workload {
 public:
  MailSession(std::uint64_t seed, Tracer& tracer)
      : seed_(seed),
        tracer_(tracer),
        assemble_span_(tracer.intern("core.assemble")),
        sync_span_(tracer.intern("mail.sync_inbox")),
        read_span_(tracer.intern("mail.read_mail")),
        search_span_(tracer.intern("mail.search")),
        compose_span_(tracer.intern("mail.compose")) {
    Rng rng(seed);
    for (std::size_t i = 0; i < kVocabulary; ++i)
      vocabulary_.push_back(rng.token(rng.uniform(3, 9)));
    session_ = prepare(0);
  }

  std::size_t step(StepLog& log) override {
    Session& s = *session_;
    mail::MailClient& client = *s.client;
    const Cycles cycles_before = s.machine->now();
    std::size_t ops = 0;

    // Only the library call is timed and its allocations counted; every
    // input was built in prepare().
    auto timed = [&](std::uint32_t span, auto&& body) {
      const std::uint64_t allocs = allocations();
      const std::int64_t start = now_ns();
      {
        Scope scope(tracer_, span, op_);
        body();
      }
      const double us = static_cast<double>(now_ns() - start) / 1e3;
      op_allocs_ += allocations() - allocs;
      log.op(us);
      ++op_;
      ++ops;
      return us;
    };

    const double sync_us = timed(sync_span_, [&] {
      auto synced = client.sync_inbox();
      if (!synced || *synced != kInbox)
        log.fail("mail_session: sync_inbox did not store the inbox: " +
                 (synced ? std::to_string(*synced)
                         : std::string(errc_name(synced.error()))));
    });
    log.major(sync_us);

    for (const Action& action : s.actions) {
      const std::size_t index = action.index;
      if (action.kind == Action::read) {
        const double us = timed(read_span_, [&] {
          auto shown = client.read_mail(index);
          if (!shown || shown->find(s.markers[index]) == std::string::npos)
            log.fail("mail_session: read_mail lost the body's marker");
        });
        log.minor(us);
      } else if (action.kind == Action::search) {
        timed(search_span_, [&] {
          auto hits = client.search(s.markers[index]);
          if (!hits || *hits != action.hits)
            log.fail("mail_session: search missed the marked message");
        });
      } else {
        timed(compose_span_, [&] {
          if (!client.compose("bob", action.subject, action.body).ok())
            log.fail("mail_session: compose failed");
        });
      }
    }

    sim_total_ += s.machine->now() - cycles_before;
    for (const char* label : {"ui->imap", "ui->storage"}) {
      const auto c = client.runtime_metrics().counters(label).snapshot();
      if (c.submitted != c.completed + c.cancelled)
        log.fail(std::string("mail_session: ") + label +
                 " submitted != completed + cancelled");
      (std::string_view(label) == "ui->imap" ? imap_batches_
                                             : storage_batches_) += c.batches;
      crossing_cycles_ += c.crossing_cycles;
      zero_copy_bytes_ += c.zero_copy_bytes;
    }
    ++sessions_;
    session_.reset();
    session_ = prepare(sessions_);
    return ops;
  }

  Cycles sim_cycles() const override { return sim_total_; }

  void window_begin() override { window_ = counts(); }

  void window_end(std::size_t ops, Metrics& layer) override {
    const Counts now = counts();
    const auto sessions = static_cast<std::size_t>(now.sessions -
                                                   window_.sessions);
    auto delta = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a);
    };
    layer["mail.allocs_per_op"] = per_op(delta(window_.allocs, now.allocs), ops);
    layer["mail.ui_storage.batches"] =
        per_op(delta(window_.storage_batches, now.storage_batches), sessions);
    layer["mail.ui_imap.batches"] =
        per_op(delta(window_.imap_batches, now.imap_batches), sessions);
    layer["mail.ui_storage.zero_copy_bytes"] =
        per_op(delta(window_.zero_copy_bytes, now.zero_copy_bytes), sessions);
    layer["runtime.doorbells_per_op"] =
        per_op(delta(window_.storage_batches + window_.imap_batches,
                     now.storage_batches + now.imap_batches),
               ops);
    layer["runtime.crossing_cycles_per_op"] =
        per_op(delta(window_.crossing_cycles, now.crossing_cycles), ops);
  }

  void span_metrics(const Tracer& tracer, std::size_t,
                    Metrics& layer) const override {
    auto mean = [&](std::string_view name, double scale) {
      const Tracer::Total t = tracer.total(name);
      return span_mean(tracer, name, static_cast<double>(t.count), scale);
    };
    layer["mail.sync_inbox_ms"] = mean("mail.sync_inbox", 1e6);
    layer["mail.read_mail_us"] = mean("mail.read_mail", 1e3);
    layer["mail.search_ms"] = mean("mail.search", 1e6);
    layer["mail.compose_us"] = mean("mail.compose", 1e3);
    layer["core.assemble_ms"] = mean("core.assemble", 1e6);
  }

  void finish(StepLog&) override {}

 private:
  /// One user action with its inputs, built before the session runs.
  struct Action {
    enum Kind { read, search, compose } kind = read;
    std::size_t index = 0;          // the inbox message it is about
    std::vector<std::size_t> hits;  // search: the expected result
    std::string subject, body;      // compose
  };

  struct Session {
    explicit Session(std::uint64_t seed) : rng(seed) {}

    /// Inbox indices whose subject or body holds `needle`, as the client's
    /// search reports them.
    std::vector<std::size_t> matches(const std::string& needle) const {
      std::vector<std::size_t> out;
      for (std::size_t i = 0; i < kInbox; ++i)
        if (subjects[i].find(needle) != std::string::npos ||
            bodies[i].find(needle) != std::string::npos)
          out.push_back(i);
      return out;
    }

    Rng rng;
    std::vector<Action> actions;
    std::vector<std::string> subjects, bodies, markers;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<microkernel::Microkernel> kernel;
    legacy::LegacyFilesystem disk;
    std::unique_ptr<mail::ImapServer> server;
    std::unique_ptr<mail::MailClient> client;
  };

  struct Counts {
    std::uint64_t allocs = 0, sessions = 0;
    std::uint64_t storage_batches = 0, imap_batches = 0;
    std::uint64_t zero_copy_bytes = 0, crossing_cycles = 0;
  };

  Counts counts() const {
    return {.allocs = op_allocs_,
            .sessions = sessions_,
            .storage_batches = storage_batches_,
            .imap_batches = imap_batches_,
            .zero_copy_bytes = zero_copy_bytes_,
            .crossing_cycles = crossing_cycles_};
  }

  template <typename T>
  static void shuffle(Rng& rng, std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i)
      std::swap(items[i - 1], items[rng.uniform(0, i - 1)]);
  }

  std::string words(Rng& rng, std::size_t length) const {
    std::string out;
    while (out.size() < length) {
      out += vocabulary_[rng.next() % kVocabulary];
      out += ' ';
    }
    return out;
  }

  /// Session `k`: its inputs come from (seed, k) alone.
  std::unique_ptr<Session> prepare(std::uint64_t k) {
    auto s = std::make_unique<Session>(seed_ ^ (0x9E3779B97F4A7C15ull * (k + 1)));
    // Body lengths: one draw from each of kInbox equal strata of
    // [200, kMaxBody], dealt to the messages in a seeded order, so every
    // session's inbox holds the same spread of sizes.
    std::vector<std::size_t> lengths;
    for (std::size_t i = 0; i < kInbox; ++i)
      lengths.push_back(200 + (kMaxBody - 200) * i / kInbox +
                        s->rng.uniform(0, (kMaxBody - 200) / kInbox - 1));
    shuffle(s->rng, lengths);
    std::vector<Action::Kind> kinds(kReads, Action::read);
    kinds.insert(kinds.end(), kSearches, Action::search);
    kinds.insert(kinds.end(), kComposes, Action::compose);
    shuffle(s->rng, kinds);
    for (std::size_t i = 0; i < kInbox; ++i) {
      const std::size_t length = lengths[i];
      const std::size_t marker_at = s->rng.uniform(0, length - 1);
      std::string body = "<p>" + words(s->rng, marker_at) + "mk" +
                         s->rng.token(kMarkerChars) + " ";
      s->markers.push_back(body.substr(body.size() - kMarkerChars - 3,
                                       kMarkerChars + 2));
      body += words(s->rng, length > body.size() ? length - body.size() : 0);
      body += "</p>";
      s->bodies.push_back(std::move(body));
      s->subjects.push_back("note " + s->rng.token(6));
    }
    for (const Action::Kind kind : kinds) {
      Action action;
      action.kind = kind;
      action.index = s->rng.uniform(0, kInbox - 1);
      if (kind == Action::search) {
        action.hits = s->matches(s->markers[action.index]);
      } else if (kind == Action::compose) {
        action.subject = "re " + s->subjects[action.index];
        action.body = words(s->rng, s->rng.uniform(200, 1000));
      }
      s->actions.push_back(std::move(action));
    }

    s->machine = make_machine("laptop");
    s->kernel = std::make_unique<microkernel::Microkernel>(
        *s->machine, substrate::SubstrateConfig{});
    s->server = std::make_unique<mail::ImapServer>("alice", "token");
    for (std::size_t i = 0; i < kInbox; ++i)
      (void)s->server->deliver(
          "INBOX", mail::make_message("bob@example", "alice@example",
                                      s->subjects[i], s->bodies[i]));
    {
      Scope span(tracer_, assemble_span_, op_);
      auto client = mail::MailClient::create({.substrate = s->kernel.get(),
                                               .disk = &s->disk,
                                               .server = s->server.get(),
                                               .vpfs_seed = to_bytes("keys")});
      if (!client) throw std::runtime_error("mail set-up: MailClient::create failed");
      s->client = std::move(*client);
    }
    if (!s->client->login("alice", "token").ok() ||
        !s->client->add_contact("bob", "bob@example").ok())
      throw std::runtime_error("mail set-up: login failed");
    return s;
  }

  std::uint64_t seed_;
  Tracer& tracer_;
  std::uint32_t assemble_span_, sync_span_, read_span_, search_span_,
      compose_span_;
  std::vector<std::string> vocabulary_;
  std::unique_ptr<Session> session_;
  std::uint64_t op_ = 0;
  std::uint64_t sessions_ = 0;
  std::uint64_t op_allocs_ = 0;
  std::uint64_t storage_batches_ = 0, imap_batches_ = 0;
  std::uint64_t zero_copy_bytes_ = 0, crossing_cycles_ = 0;
  Cycles sim_total_ = 0;
  Counts window_;
};

}  // namespace

std::unique_ptr<Workload> make_mail_session(std::uint64_t seed,
                                            Tracer& tracer) {
  return std::make_unique<MailSession>(seed, tracer);
}

}  // namespace perfbench
