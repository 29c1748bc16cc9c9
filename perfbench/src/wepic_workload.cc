// wepic: the paper's application (§3/§4) through WepicApp on the
// simulated LAN with memory-only peers. One closed-loop client issues a
// seeded mix of the user actions, each followed by convergence, with
// bound point lookups and Query-tab queries interleaved. The client
// approves every delegation an attendee's gate holds pending (the
// Figure 3 approve), each approve timed as its own update.
//
// A run is a sequence of episodes. Each episode builds the conference
// from scratch (that is one setup_s sample) and then issues a fixed
// number of operations, so the state an operation sees does not depend
// on how fast earlier episodes ran.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "counters.h"
#include "runtime/query.h"
#include "trace.h"
#include "wepic/wepic.h"
#include "workloads.h"
#include "wrappers/email_wrapper.h"
#include "wrappers/facebook_wrapper.h"

namespace perfbench {
namespace {

using wdl::Fact;
using wdl::Peer;
using wdl::Result;
using wdl::Status;
using wdl::Value;

constexpr int kAttendees = 64;
constexpr int kSeedPictures = 3;  // per attendee, uploaded during setup
constexpr size_t kBlobBytes = 4096;
constexpr int kOpsPerEpisode = 1000;
// A run does a fixed amount of work for a given --seconds, so counts
// and memory depend only on the seed; about 1.2 episodes fill a second
// on a 4-CPU container.
constexpr double kEpisodesPerSecond = 1.2;
constexpr int kMinEpisodes = 3;
constexpr int kMaxApproveWaves = 8;

enum class Kind {
  kUpload, kRate, kComment, kTag, kSelect, kDeselect, kTransfer,
  kAuthorize, kRuleSwap, kLookup, kQuery
};

struct MixEntry {
  Kind kind;
  int weight;
  const char* name;
};

// Weights out of 100: updates 55, reads 45. No source gives Wepic's
// action frequencies, so these are chosen by hand; README.md gives the
// reason for each.
constexpr MixEntry kMix[] = {
    {Kind::kUpload, 14, "upload"},       {Kind::kRate, 9, "rate"},
    {Kind::kComment, 6, "comment"},      {Kind::kTag, 6, "tag"},
    {Kind::kSelect, 7, "select"},        {Kind::kDeselect, 4, "deselect"},
    {Kind::kTransfer, 4, "transfer"},    {Kind::kAuthorize, 4, "authorize"},
    {Kind::kRuleSwap, 1, "rule_swap"},   {Kind::kLookup, 40, "lookup"},
    {Kind::kQuery, 5, "query"},
};

std::string MixDescription() {
  std::string out;
  for (const MixEntry& e : kMix) {
    if (!out.empty()) out += ",";
    out += std::string(e.name) + ":" + std::to_string(e.weight);
  }
  return out;
}

std::string AttendeeName(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "att%02d", i);
  return buf;
}

std::string PictureName(int64_t id) { return "p" + std::to_string(id) + ".jpg"; }

/// The picture bytes are a pure function of (episode seed, id), so the
/// checks can rebuild any tuple without keeping every blob around.
std::string Blob(uint64_t seed, int64_t id) {
  wdl::Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(id));
  std::string bytes(kBlobBytes, '\0');
  for (size_t i = 0; i < bytes.size(); i += 8) {
    uint64_t r = rng.Next();
    for (size_t j = 0; j < 8 && i + j < bytes.size(); ++j) {
      bytes[i + j] = static_cast<char>(r >> (8 * j));
    }
  }
  return bytes;
}

/// The Wepic deployment the client talks to. The untraced run uses
/// WepicApp itself; the traced run rebuilds the same topology from
/// WepicApp's program texts and wrappers on a decorated transport (a
/// WepicApp owns its System, so no decorator can be injected into it).
/// Both must end on the same fingerprint for the same seed.
class Host {
 public:
  virtual ~Host() = default;
  virtual Status SetupConference() = 0;
  virtual Status AddAttendee(const std::string& name) = 0;
  virtual Status Upload(const std::string& a, int64_t id,
                        const std::string& name, const std::string& data) = 0;
  virtual Status Rate(const std::string& a, int64_t id, int rating) = 0;
  virtual Status Comment(const std::string& a, int64_t id,
                         const std::string& author,
                         const std::string& text) = 0;
  virtual Status Tag(const std::string& a, int64_t id,
                     const std::string& person) = 0;
  virtual Status Select(const std::string& who, const std::string& sel) = 0;
  virtual Status Deselect(const std::string& who, const std::string& sel) = 0;
  virtual Status SelectPicture(const std::string& who, const std::string& name,
                               int64_t id, const std::string& owner) = 0;
  virtual Status SetProtocol(const std::string& a, const std::string& p) = 0;
  virtual Status AuthorizeFacebook(const std::string& a, int64_t id) = 0;
  virtual Result<uint64_t> InstallRatingFilter(const std::string& a) = 0;
  virtual Result<int> Converge() = 0;
  virtual wdl::System& system() = 0;
  virtual wdl::FacebookService& facebook() = 0;
  virtual wdl::EmailService& email() = 0;
};

class AppHost : public Host {
 public:
  explicit AppHost(uint64_t seed) : app_(wdl::WepicOptions{seed, {}}) {}
  Status SetupConference() override { return app_.SetupConference(); }
  Status AddAttendee(const std::string& name) override {
    return app_.AddAttendee(name);
  }
  Status Upload(const std::string& a, int64_t id, const std::string& name,
                const std::string& data) override {
    return app_.UploadPicture(a, id, name, data);
  }
  Status Rate(const std::string& a, int64_t id, int rating) override {
    return app_.RatePicture(a, id, rating);
  }
  Status Comment(const std::string& a, int64_t id, const std::string& author,
                 const std::string& text) override {
    return app_.CommentPicture(a, id, author, text);
  }
  Status Tag(const std::string& a, int64_t id,
             const std::string& person) override {
    return app_.TagPicture(a, id, person);
  }
  Status Select(const std::string& who, const std::string& sel) override {
    return app_.SelectAttendee(who, sel);
  }
  Status Deselect(const std::string& who, const std::string& sel) override {
    return app_.DeselectAttendee(who, sel);
  }
  Status SelectPicture(const std::string& who, const std::string& name,
                       int64_t id, const std::string& owner) override {
    return app_.SelectPicture(who, name, id, owner);
  }
  Status SetProtocol(const std::string& a, const std::string& p) override {
    return app_.SetCommunicationProtocol(a, p);
  }
  Status AuthorizeFacebook(const std::string& a, int64_t id) override {
    return app_.AuthorizeFacebook(a, id);
  }
  Result<uint64_t> InstallRatingFilter(const std::string& a) override {
    return app_.InstallRatingFilter(a, 5);
  }
  Result<int> Converge() override { return app_.Converge(); }
  wdl::System& system() override { return app_.system(); }
  wdl::FacebookService& facebook() override { return app_.facebook(); }
  wdl::EmailService& email() override { return app_.email(); }

 private:
  wdl::WepicApp app_;
};

/// Same topology, programs, trust and wrappers as WepicApp (see
/// src/wepic/wepic.cc), built through the public API on a traced
/// SimulatedNetwork with the same seed.
class TracedHost : public Host {
 public:
  TracedHost(uint64_t seed, Tracer* tracer)
      : tracer_(tracer),
        system_(std::make_unique<TracingNetwork>(
                    std::make_unique<wdl::SimulatedNetwork>(seed,
                                                            wdl::LinkConfig{}),
                    tracer),
                Options(seed)) {}

  /// WepicApp's system options: only the network seed differs from
  /// the defaults.
  static wdl::SystemOptions Options(uint64_t seed) {
    wdl::SystemOptions o;
    o.network_seed = seed;
    return o;
  }

  Status SetupConference() override {
    facebook_.CreateGroup(wdl::kFacebookGroup);
    Peer* sigmod = system_.CreatePeer(wdl::kSigmodPeer);
    Status st = sigmod->LoadProgramText(wdl::WepicApp::SigmodProgramText());
    if (!st.ok()) return st;
    Peer* fb = system_.CreatePeer(wdl::kSigmodFBPeer);
    fb->gate().TrustPeer(wdl::kSigmodPeer);
    return system_.AttachWrapper(std::make_unique<TracingWrapper>(
        std::make_unique<wdl::FacebookGroupWrapper>(
            wdl::kSigmodFBPeer, &facebook_, wdl::kFacebookGroup),
        tracer_));
  }
  Status AddAttendee(const std::string& name) override {
    Peer* peer = system_.CreatePeer(name);
    peer->gate().TrustPeer(wdl::kSigmodPeer);
    Status st =
        peer->LoadProgramText(wdl::WepicApp::AttendeeProgramText(name));
    if (!st.ok()) return st;
    std::vector<const wdl::InstalledRule*> rules = peer->engine().rules();
    if (!rules.empty()) selection_rule_id_[name] = rules.front()->id;
    st = system_.GetPeer(wdl::kSigmodPeer)
             ->Insert(Fact("attendees", wdl::kSigmodPeer,
                           {Value::String(name)}))
             .status();
    if (!st.ok()) return st;
    facebook_.AddUser(name);
    st = facebook_.JoinGroup(wdl::kFacebookGroup, name);
    if (!st.ok()) return st;
    return system_.AttachWrapper(std::make_unique<TracingWrapper>(
        std::make_unique<wdl::EmailWrapper>(name, &email_,
                                            name + "@example.org"),
        tracer_));
  }
  Status Upload(const std::string& a, int64_t id, const std::string& name,
                const std::string& data) override {
    return Insert(a, Fact("pictures", a,
                          {Value::Int(id), Value::String(name),
                           Value::String(a), Value::MakeBlob(data)}));
  }
  Status Rate(const std::string& a, int64_t id, int rating) override {
    return Insert(a, Fact("rate", a, {Value::Int(id), Value::Int(rating)}));
  }
  Status Comment(const std::string& a, int64_t id, const std::string& author,
                 const std::string& text) override {
    return Insert(a, Fact("comment", a,
                          {Value::Int(id), Value::String(author),
                           Value::String(text)}));
  }
  Status Tag(const std::string& a, int64_t id,
             const std::string& person) override {
    return Insert(a, Fact("tag", a, {Value::Int(id), Value::String(person)}));
  }
  Status Select(const std::string& who, const std::string& sel) override {
    return Insert(who, Fact("selectedAttendee", who, {Value::String(sel)}));
  }
  Status Deselect(const std::string& who, const std::string& sel) override {
    return system_.GetPeer(who)
        ->Remove(Fact("selectedAttendee", who, {Value::String(sel)}))
        .status();
  }
  Status SelectPicture(const std::string& who, const std::string& name,
                       int64_t id, const std::string& owner) override {
    return Insert(who, Fact("selectedPictures", who,
                            {Value::String(name), Value::Int(id),
                             Value::String(owner)}));
  }
  Status SetProtocol(const std::string& a, const std::string& p) override {
    return Insert(a, Fact("communicate", a, {Value::String(p)}));
  }
  Status AuthorizeFacebook(const std::string& a, int64_t id) override {
    return Insert(a, Fact("authorized", a,
                          {Value::String("Facebook"), Value::Int(id),
                           Value::String(a)}));
  }
  Result<uint64_t> InstallRatingFilter(const std::string& a) override {
    Peer* peer = system_.GetPeer(a);
    auto it = selection_rule_id_.find(a);
    if (it != selection_rule_id_.end()) {
      Status st = peer->engine().RemoveRule(it->second);
      if (!st.ok()) return st;
      selection_rule_id_.erase(it);
    }
    std::string rule =
        "attendeePictures@" + a + "($id, $name, $owner, $data) :- " +
        "selectedAttendee@" + a + "($attendee), " +
        "pictures@$attendee($id, $name, $owner, $data), " +
        "rate@$owner($id, 5)";
    Result<uint64_t> id = peer->AddRuleText(rule);
    if (id.ok()) selection_rule_id_[a] = *id;
    return id;
  }
  Result<int> Converge() override { return system_.RunUntilQuiescent(300); }
  wdl::System& system() override { return system_; }
  wdl::FacebookService& facebook() override { return facebook_; }
  wdl::EmailService& email() override { return email_; }

 private:
  Status Insert(const std::string& peer, const Fact& fact) {
    return system_.GetPeer(peer)->Insert(fact).status();
  }

  Tracer* tracer_;
  wdl::FacebookService facebook_;
  wdl::EmailService email_;
  wdl::System system_;
  std::map<std::string, uint64_t> selection_rule_id_;
};

/// The client's own model of what the paper's rules must produce,
/// maintained from the actions it issued. Checks compare the system
/// against it; it never consults the engine's oracle modes.
struct Model {
  std::vector<std::string> names;
  std::map<std::string, std::vector<int64_t>> pictures_of;
  std::map<int64_t, std::string> owner_of;
  std::map<std::string, std::set<std::pair<int64_t, int64_t>>> rates;
  std::map<std::string, std::set<std::pair<int64_t, std::string>>> tags;
  std::map<std::string,
           std::set<std::tuple<int64_t, std::string, std::string>>>
      comments;
  std::map<std::string, std::set<std::string>> selected;
  std::set<std::string> filtered;        // rating filter installed
  std::set<std::string> email_protocol;  // communicate@a("email")
  std::map<std::string, std::set<int64_t>> selected_pictures;
  std::set<int64_t> authorized;
  std::set<std::pair<std::string, int64_t>> emailed;  // ever derived
  int64_t next_id = 1;

  bool FiveStar(const std::string& owner, int64_t id) const {
    auto it = rates.find(owner);
    return it != rates.end() && it->second.count({id, 5}) > 0;
  }
  /// Picture ids attendeePictures@who must hold.
  std::set<int64_t> View(const std::string& who) const {
    std::set<int64_t> out;
    auto sel = selected.find(who);
    if (sel == selected.end()) return out;
    bool filter = filtered.count(who) > 0;
    for (const std::string& y : sel->second) {
      auto pics = pictures_of.find(y);
      if (pics == pictures_of.end()) continue;
      for (int64_t id : pics->second) {
        if (!filter || FiveStar(y, id)) out.insert(id);
      }
    }
    return out;
  }
  /// email@a tuples the transfer rule derives right now, as (a, id).
  std::set<std::pair<std::string, int64_t>> CurrentEmails() const {
    std::set<std::pair<std::string, int64_t>> out;
    for (const auto& [who, sel] : selected) {
      auto pics = selected_pictures.find(who);
      if (pics == selected_pictures.end()) continue;
      for (const std::string& a : sel) {
        if (!email_protocol.count(a)) continue;
        for (int64_t id : pics->second) out.insert({a, id});
      }
    }
    return out;
  }
};

std::string ValueText(const Value& v) {
  return v.is_string() ? v.AsString() : v.ToString();
}

std::vector<std::string> RowsText(const wdl::QueryResult& r) {
  std::vector<std::string> out;
  for (const wdl::Tuple& row : r.rows) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += "|";
      line += row[i].is_blob() ? "<blob>" : ValueText(row[i]);
    }
    out.push_back(line);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::set<int64_t> ViewIds(Peer* peer) {
  std::set<int64_t> ids;
  const wdl::Relation* rel = peer->engine().catalog().Get("attendeePictures");
  if (rel != nullptr) {
    rel->ForEach([&](const wdl::Tuple& t) { ids.insert(t[0].AsInt()); });
  }
  return ids;
}

/// Everything one run accumulates over its episodes, untraced or traced.
struct Stats {
  std::vector<double> setup_s;
  std::vector<double> update_ms;
  std::vector<double> lookup_us;
  std::vector<double> query_ms;
  double op_seconds = 0;  // time inside the library, summed over ops
  uint64_t updates = 0;
  uint64_t reads = 0;
  uint64_t update_wire_bytes = 0;
  // traced-only layer inputs
  UpdateSample update_sample;
  uint64_t lookups_on_demand = 0;
  std::vector<double> lookup_tuples_examined;
  std::vector<double> query_rounds;
  uint64_t pending_peak = 0;
  uint64_t fb_posts = 0;
  uint64_t emails = 0;
  uint64_t resyncs = 0;
  uint64_t plans_compiled = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t materialized_peers = 0;
  uint64_t storage_tuples = 0;
  std::vector<double> episode_ops_per_s;
};

/// One episode: build the conference, run kOpsPerEpisode operations,
/// check the final state. Returns the digest the traced/untraced
/// comparison uses.
class Episode {
 public:
  Episode(uint64_t seed, Tracer* tracer, uint64_t* next_op, Stats* stats,
          RunReport* report)
      : seed_(seed),
        tracer_(tracer),
        next_op_(next_op),
        stats_(stats),
        report_(report),
        rng_(seed) {
    if (tracer != nullptr) {
      host_ = std::make_unique<TracedHost>(seed, tracer);
    } else {
      host_ = std::make_unique<AppHost>(seed);
    }
  }

  /// Returns false when setup itself failed (the episode is then void).
  bool Setup();
  void RunOps();
  std::string FinishAndDigest();

 private:
  Peer* P(const std::string& name) { return host_->system().GetPeer(name); }
  const std::string& RandomAttendee() {
    return model_.names[rng_.NextBelow(model_.names.size())];
  }
  int64_t RandomPictureOf(const std::string& owner) {
    const std::vector<int64_t>& pics = model_.pictures_of[owner];
    return pics[rng_.NextBelow(pics.size())];
  }
  wdl::Tuple PictureTuple(int64_t id) {
    const std::string& owner = model_.owner_of[id];
    return {Value::Int(id), Value::String(PictureName(id)),
            Value::String(owner), Value::MakeBlob(Blob(seed_, id))};
  }
  /// Records the operation's first failed check; RunOps counts at most
  /// one miss per operation.
  void Check(bool ok, const std::string& what) {
    if (!ok && miss_.empty()) miss_ = what;
  }
  void CheckView(const std::string& who, const std::string& what) {
    Check(ViewIds(P(who)) == model_.View(who), what + ": attendeePictures@" + who);
  }
  /// Whether `to`'s mailbox holds exactly one email per picture the
  /// model says was mailed to them, each naming that picture.
  bool MailboxMatches(const std::string& to) const {
    std::multiset<std::string> have, want;
    for (const auto& mail : host_->email().InboxOf(to + "@example.org")) {
      have.insert(mail.subject);
    }
    for (auto it = model_.emailed.lower_bound({to, INT64_MIN});
         it != model_.emailed.end() && it->first == to; ++it) {
      want.insert(PictureName(it->second));
    }
    return have == want;
  }

  /// Runs one update: `action` then convergence, timed together, then
  /// every delegation left pending approved (each its own update).
  template <typename Fn>
  void Update(const char* span_name, Fn&& action);
  /// Times `action` plus convergence as one update; returns what failed
  /// ("" when both succeeded).
  template <typename Fn>
  std::string TimedUpdate(const char* span_name, Fn&& action);
  void ApprovePending();
  void BeginOp(bool is_update);
  void EndOp(Clock::time_point start, bool is_update, uint64_t bytes_before,
             const LayerCounters* before);

  void DoOp(Kind kind);
  void Lookup();
  void Query();

  uint64_t seed_;
  Tracer* tracer_;
  uint64_t* next_op_;
  Stats* stats_;
  RunReport* report_;
  wdl::Rng rng_;
  std::unique_ptr<Host> host_;
  std::unique_ptr<PeerList> peers_;
  Model model_;
  int query_turn_ = 0;
  std::string miss_;  // first failed check of the current operation
};

void Episode::BeginOp(bool is_update) {
  uint64_t op = ++*next_op_;
  if (tracer_ != nullptr) {
    tracer_->set_op(op);
    if (is_update) stats_->update_sample.ops.push_back(op);
  }
}

void Episode::EndOp(Clock::time_point start, bool is_update,
                    uint64_t bytes_before, const LayerCounters* before) {
  double s = SecondsSince(start);
  stats_->op_seconds += s;
  if (is_update) {
    stats_->update_ms.push_back(s * 1e3);
    ++stats_->updates;
    stats_->update_wire_bytes +=
        host_->system().transport().StatsSnapshot().bytes_sent - bytes_before;
    if (before != nullptr) {
      stats_->update_sample.delta +=
          Collect(host_->system(), peers_->Get()) - *before;
    }
  } else {
    ++stats_->reads;
  }
  ++report_->attempted;
}

template <typename Fn>
std::string Episode::TimedUpdate(const char* span_name, Fn&& action) {
  BeginOp(true);
  LayerCounters before;
  if (tracer_ != nullptr) before = Collect(host_->system(), peers_->Get());
  uint64_t bytes = host_->system().transport().StatsSnapshot().bytes_sent;
  Clock::time_point start = Clock::now();
  Status st;
  {
    ScopedSpan span(tracer_, span_name);
    st = action();
  }
  Result<int> conv = [&] {
    ScopedSpan span(tracer_, "runtime.converge");
    return host_->Converge();
  }();
  EndOp(start, true, bytes, tracer_ != nullptr ? &before : nullptr);
  if (!st.ok()) return std::string(span_name) + ": " + st.ToString();
  if (!conv.ok()) return "converge: " + conv.status().ToString();
  return "";
}

template <typename Fn>
void Episode::Update(const char* span_name, Fn&& action) {
  std::string failed = TimedUpdate(span_name, std::forward<Fn>(action));
  Check(failed.empty(), failed);
  ApprovePending();
  // Emails are sent once per distinct email@ tuple ever derived.
  for (const auto& e : model_.CurrentEmails()) model_.emailed.insert(e);
}

void Episode::ApprovePending() {
  for (int wave = 0; wave < kMaxApproveWaves; ++wave) {
    std::vector<std::pair<Peer*, uint64_t>> pending;
    for (Peer* peer : peers_->Get()) {
      for (const wdl::Delegation* d : peer->gate().Pending()) {
        pending.emplace_back(peer, d->Key());
      }
    }
    stats_->pending_peak =
        std::max<uint64_t>(stats_->pending_peak, pending.size());
    if (pending.empty()) return;
    for (const auto& [peer, key] : pending) {
      std::string failed = TimedUpdate(
          "acl.approve", [&, p = peer, k = key] { return p->ApproveDelegation(k); });
      if (!failed.empty()) report_->Miss(failed);
    }
  }
  report_->Miss("delegations still pending after approve waves");
}

bool Episode::Setup() {
  Clock::time_point start = Clock::now();
  Status st = host_->SetupConference();
  for (int i = 0; i < kAttendees && st.ok(); ++i) {
    model_.names.push_back(AttendeeName(i));
    st = host_->AddAttendee(model_.names.back());
  }
  for (const std::string& a : model_.names) {
    for (int k = 0; k < kSeedPictures && st.ok(); ++k) {
      int64_t id = model_.next_id++;
      model_.pictures_of[a].push_back(id);
      model_.owner_of[id] = a;
      st = host_->Upload(a, id, PictureName(id), Blob(seed_, id));
    }
  }
  if (!st.ok()) {
    report_->Wrong("setup: " + st.ToString());
    return false;
  }
  Result<int> conv = host_->Converge();
  if (!conv.ok()) {
    report_->Wrong("setup converge: " + conv.status().ToString());
    return false;
  }
  stats_->setup_s.push_back(SecondsSince(start));
  peers_ = std::make_unique<PeerList>(&host_->system());
  return true;
}

void Episode::RunOps() {
  int total = 0;
  for (const MixEntry& e : kMix) total += e.weight;
  for (int i = 0; i < kOpsPerEpisode; ++i) {
    int roll = static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(total)));
    Kind kind = kMix[0].kind;
    for (const MixEntry& e : kMix) {
      if (roll < e.weight) {
        kind = e.kind;
        break;
      }
      roll -= e.weight;
    }
    DoOp(kind);
    if (!miss_.empty()) {
      report_->Miss(miss_);
      miss_.clear();
    }
  }
}

void Episode::DoOp(Kind kind) {
  Model& m = model_;
  switch (kind) {
    case Kind::kUpload: {
      const std::string a = RandomAttendee();
      int64_t id = m.next_id++;
      m.pictures_of[a].push_back(id);
      m.owner_of[id] = a;
      std::string data = Blob(seed_, id);
      Update("wepic.apply",
             [&] { return host_->Upload(a, id, PictureName(id), data); });
      const wdl::Relation* at_sigmod =
          P(wdl::kSigmodPeer)->engine().catalog().Get("pictures");
      Check(at_sigmod != nullptr && at_sigmod->Contains(PictureTuple(id)),
            "upload not in pictures@sigmod");
      for (const auto& [who, sel] : m.selected) {
        if (sel.count(a)) CheckView(who, "upload");
      }
      return;
    }
    case Kind::kRate: {
      const std::string a = RandomAttendee();
      int64_t id = RandomPictureOf(a);
      int rating = 1 + static_cast<int>(rng_.NextBelow(5));
      m.rates[a].insert({id, rating});
      Update("wepic.apply", [&] { return host_->Rate(a, id, rating); });
      for (const auto& [who, sel] : m.selected) {
        if (sel.count(a) && m.filtered.count(who)) CheckView(who, "rate");
      }
      return;
    }
    case Kind::kComment: {
      const std::string a = RandomAttendee();
      int64_t id = 1 + static_cast<int64_t>(
                           rng_.NextBelow(static_cast<uint64_t>(m.next_id - 1)));
      std::string text = "c" + std::to_string(rng_.NextBelow(1000));
      m.comments[a].insert({id, a, text});
      Update("wepic.apply", [&] { return host_->Comment(a, id, a, text); });
      return;
    }
    case Kind::kTag: {
      const std::string a = RandomAttendee();
      int64_t id = RandomPictureOf(a);
      const std::string person = RandomAttendee();
      m.tags[a].insert({id, person});
      Update("wepic.apply", [&] { return host_->Tag(a, id, person); });
      return;
    }
    case Kind::kDeselect: {
      const std::string who = RandomAttendee();
      std::set<std::string>& sel = m.selected[who];
      if (!sel.empty()) {
        auto it = sel.begin();
        std::advance(it, static_cast<long>(rng_.NextBelow(sel.size())));
        const std::string gone = *it;
        sel.erase(it);
        Update("wepic.apply", [&] { return host_->Deselect(who, gone); });
        std::set<int64_t> view = ViewIds(P(who));
        Check(std::none_of(view.begin(), view.end(),
                           [&](int64_t id) { return m.owner_of[id] == gone; }),
              "deselect did not retract");
        CheckView(who, "deselect");
        return;
      }
      return DoOp(Kind::kSelect);  // nothing selected yet
    }
    case Kind::kSelect: {
      const std::string who = RandomAttendee();
      const std::string sel = RandomAttendee();
      if (sel == who || m.selected[who].count(sel)) return DoOp(Kind::kTag);
      m.selected[who].insert(sel);
      Update("wepic.apply", [&] { return host_->Select(who, sel); });
      CheckView(who, "select");
      return;
    }
    case Kind::kTransfer: {
      // A sender who has someone selected marks a picture; the selected
      // attendee's protocol is email, so the transfer rule mails it.
      std::vector<std::string> senders;
      for (const auto& [who, sel] : m.selected) {
        if (!sel.empty()) senders.push_back(who);
      }
      if (senders.empty()) return DoOp(Kind::kSelect);
      const std::string who = senders[rng_.NextBelow(senders.size())];
      const std::set<std::string>& sel = m.selected[who];
      auto it = sel.begin();
      std::advance(it, static_cast<long>(rng_.NextBelow(sel.size())));
      const std::string to = *it;
      int64_t id = 1 + static_cast<int64_t>(
                           rng_.NextBelow(static_cast<uint64_t>(m.next_id - 1)));
      const std::string owner = m.owner_of[id];
      bool set_protocol = m.email_protocol.insert(to).second;
      m.selected_pictures[who].insert(id);
      Update("wepic.apply", [&] {
        Status st = set_protocol ? host_->SetProtocol(to, "email") : Status::OK();
        if (!st.ok()) return st;
        return host_->SelectPicture(who, PictureName(id), id, owner);
      });
      Check(MailboxMatches(to) &&
                host_->email().sent_count() == m.emailed.size(),
            "transfer: mailbox of " + to + " differs from the model (" +
                std::to_string(host_->email().sent_count()) + " emails sent, " +
                std::to_string(m.emailed.size()) + " expected)");
      return;
    }
    case Kind::kAuthorize: {
      const std::string a = RandomAttendee();
      int64_t id = RandomPictureOf(a);
      m.authorized.insert(id);
      Update("wepic.apply", [&] { return host_->AuthorizeFacebook(a, id); });
      Check(host_->facebook().GroupHasPicture(wdl::kFacebookGroup, id),
            "authorized picture not on the Facebook wall");
      return;
    }
    case Kind::kRuleSwap: {
      const std::string a = RandomAttendee();
      m.filtered.insert(a);
      Update("parser.rule_install",
             [&] { return host_->InstallRatingFilter(a).status(); });
      CheckView(a, "rule swap");
      return;
    }
    case Kind::kLookup:
      return Lookup();
    case Kind::kQuery:
      return Query();
  }
}

void Episode::Lookup() {
  Model& m = model_;
  const std::string a = RandomAttendee();
  int64_t id = rng_.NextBelow(4) != 0
                   ? RandomPictureOf(a)
                   : 1 + static_cast<int64_t>(rng_.NextBelow(
                             static_cast<uint64_t>(m.next_id - 1)));
  std::string ids = std::to_string(id);
  std::string body;
  std::vector<std::string> expected;
  switch (rng_.NextBelow(4)) {
    case 0:
      body = "pictures@" + a + "(" + ids + ", $n, $o, $d)";
      if (m.owner_of[id] == a) expected.push_back(PictureName(id) + "|" + a + "|<blob>");
      break;
    case 1:
      body = "rate@" + a + "(" + ids + ", $r)";
      for (const auto& [pid, r] : m.rates[a]) {
        if (pid == id) expected.push_back(std::to_string(r));
      }
      break;
    case 2:
      body = "tag@" + a + "(" + ids + ", $p)";
      for (const auto& [pid, p] : m.tags[a]) {
        if (pid == id) expected.push_back(p);
      }
      break;
    default:
      body = "comment@" + a + "(" + ids + ", $au, $t)";
      for (const auto& [pid, au, t] : m.comments[a]) {
        if (pid == id) expected.push_back(au + "|" + t);
      }
      break;
  }
  std::sort(expected.begin(), expected.end());
  BeginOp(false);
  Clock::time_point start = Clock::now();
  Result<wdl::QueryResult> r = [&] {
    ScopedSpan span(tracer_, "query.lookup");
    return wdl::RunQuery(&host_->system(), a, body);
  }();
  double s = SecondsSince(start);
  EndOp(start, false, 0, nullptr);
  stats_->lookup_us.push_back(s * 1e6);
  if (!r.ok()) return Check(false, "lookup " + body + ": " + r.status().ToString());
  if (r->demand_path) ++stats_->lookups_on_demand;
  stats_->lookup_tuples_examined.push_back(static_cast<double>(r->tuples_examined));
  Check(RowsText(*r) == expected, "lookup " + body + " answer differs");
}

void Episode::Query() {
  Model& m = model_;
  std::string body;
  std::vector<std::string> expected;
  switch (query_turn_++ % 3) {
    case 0:
      body = "attendees@sigmod($a), rate@$a($id, 5)";
      for (const auto& [a, rs] : m.rates) {
        for (const auto& [id, r] : rs) {
          if (r == 5) expected.push_back(a + "|" + std::to_string(id));
        }
      }
      break;
    case 1:
      body = "attendees@sigmod($a), tag@$a($id, $p)";
      for (const auto& [a, ts] : m.tags) {
        for (const auto& [id, p] : ts) {
          expected.push_back(a + "|" + std::to_string(id) + "|" + p);
        }
      }
      break;
    default:
      body = "attendees@sigmod($a), selectedAttendee@$a($s)";
      for (const auto& [a, sel] : m.selected) {
        for (const std::string& s : sel) expected.push_back(a + "|" + s);
      }
      break;
  }
  std::sort(expected.begin(), expected.end());
  BeginOp(false);
  Clock::time_point start = Clock::now();
  Result<wdl::QueryResult> r = [&] {
    ScopedSpan span(tracer_, "query.full");
    return wdl::RunQuery(&host_->system(), wdl::kSigmodPeer, body);
  }();
  double s = SecondsSince(start);
  EndOp(start, false, 0, nullptr);
  stats_->query_ms.push_back(s * 1e3);
  if (!r.ok()) return Check(false, "query " + body + ": " + r.status().ToString());
  stats_->query_rounds.push_back(r->rounds);
  Check(RowsText(*r) == expected, "query " + body + " answer differs");
}

std::string Episode::FinishAndDigest() {
  Model& m = model_;
  for (const std::string& who : m.names) {
    if (ViewIds(P(who)) != m.View(who)) {
      report_->Wrong("final attendeePictures@" + who + " differs from the model");
    }
  }
  const wdl::Relation* at_sigmod =
      P(wdl::kSigmodPeer)->engine().catalog().Get("pictures");
  if (at_sigmod == nullptr || at_sigmod->size() != m.owner_of.size()) {
    report_->Wrong("final pictures@sigmod size differs from the model");
  }
  std::vector<wdl::FacebookService::Picture> wall =
      host_->facebook().GroupPictures(wdl::kFacebookGroup);
  if (wall.size() != m.authorized.size()) {
    report_->Wrong("final Facebook wall size differs from the model");
  }
  if (host_->email().sent_count() != m.emailed.size()) {
    report_->Wrong("final email count differs from the model");
  }
  for (const std::string& who : m.names) {
    if (!MailboxMatches(who)) {
      report_->Wrong("final mailbox of " + who + " differs from the model");
    }
  }
  const std::vector<Peer*>& peers = peers_->Get();
  if (tracer_ != nullptr) {
    LayerCounters total = Collect(host_->system(), peers);
    stats_->plans_compiled += total.plans_compiled;
    stats_->plan_cache_hits += total.plan_cache_hits;
    stats_->resyncs += total.resyncs;
    stats_->fb_posts += wall.size();
    stats_->emails += host_->email().sent_count();
    stats_->materialized_peers = host_->system().MaterializedPeerCount();
    stats_->storage_tuples = StorageTuples(peers);
  }
  return std::to_string(StateDigest(host_->system())) +
         " wall=" + std::to_string(wall.size()) +
         " emails=" + std::to_string(host_->email().sent_count());
}

std::string RunEpisode(uint64_t seed, Tracer* tracer, uint64_t* next_op,
                       Stats* stats, RunReport* report) {
  Episode episode(seed, tracer, next_op, stats, report);
  if (!episode.Setup()) return "setup failed";
  const uint64_t ops = stats->updates + stats->reads;
  const double seconds = stats->op_seconds;
  episode.RunOps();
  stats->episode_ops_per_s.push_back(
      Ratio(static_cast<double>(stats->updates + stats->reads - ops),
            stats->op_seconds - seconds));
  return episode.FinishAndDigest();
}

}  // namespace

RunReport RunWepic(const RunArgs& args) {
  RunReport report;
  report.Config("attendees", kAttendees);
  report.Config("seed_pictures_per_attendee", kSeedPictures);
  report.Config("blob_bytes", static_cast<double>(kBlobBytes));
  report.Config("ops_per_episode", kOpsPerEpisode);
  report.Config("op_mix", MixDescription());
  report.Config("client", "closed loop, 1 client");
  report.Config("durability", "memory-only peers");

  const int episodes = std::max(
      kMinEpisodes, static_cast<int>(std::lround(args.seconds * kEpisodesPerSecond)));
  uint64_t next_op = 0;
  Stats untraced;
  if (!args.trace) {
    for (int e = 0; e < episodes; ++e) {
      RunEpisode(EpisodeSeed(args.seed, e), nullptr, &next_op, &untraced,
                 &report);
    }
    report.Config("episodes", episodes);
    auto& m = report.end_to_end;
    m["setup_s"].value = Median(untraced.setup_s);
    m["update_p50_ms"].value = Quantile(untraced.update_ms, 0.5);
    m["update_p99_ms"].value = Quantile(untraced.update_ms, 0.99);
    m["ops_per_s"].value = Median(untraced.episode_ops_per_s);
    m["wire_bytes_per_update"].value =
        Ratio(untraced.update_wire_bytes, untraced.updates);
    report.extra["lookup_p50_us"] = {Quantile(untraced.lookup_us, 0.5), "us"};
    report.extra["lookup_p99_us"] = {Quantile(untraced.lookup_us, 0.99), "us"};
    report.extra["query_p50_ms"] = {Quantile(untraced.query_ms, 0.5), "ms"};
    report.extra["query_p99_ms"] = {Quantile(untraced.query_ms, 0.99), "ms"};
    report.notes.push_back(ListValues("setup_s by episode", untraced.setup_s));
    report.notes.push_back(ListValues("ops_per_s by episode", untraced.episode_ops_per_s));
    report.notes.push_back("updates: " + DescribeSample(untraced.update_ms, "ms"));
    report.notes.push_back("lookups: " + DescribeSample(untraced.lookup_us, "us"));
    report.notes.push_back("queries: " + DescribeSample(untraced.query_ms, "ms"));
    return report;
  }

  // Traced run: half the episodes, each run untraced and traced with
  // the same seed; both must end on the same digest.
  Tracer tracer;
  Stats traced;
  const int pairs = std::max(1, episodes / 2);
  for (int e = 0; e < pairs; ++e) {
    uint64_t seed = EpisodeSeed(args.seed, e);
    // Alternate which side runs first, so neither always gets the
    // warmer process.
    std::string plain, with_trace;
    if (e % 2 == 0) {
      plain = RunEpisode(seed, nullptr, &next_op, &untraced, &report);
      with_trace = RunEpisode(seed, &tracer, &next_op, &traced, &report);
    } else {
      with_trace = RunEpisode(seed, &tracer, &next_op, &traced, &report);
      plain = RunEpisode(seed, nullptr, &next_op, &untraced, &report);
    }
    if (plain != with_trace) {
      report.Wrong("traced episode " + std::to_string(e) +
                   " ended on a different fingerprint than the untraced one");
    }
  }
  report.Config("episode_pairs", pairs);
  AddUpdateLayerMetrics(tracer, traced.update_sample, &report);
  auto& m = report.per_layer;
  m["wepic.apply_us"].value = Median(tracer.Durations("wepic.apply"));
  m["runtime.materialized_peers"].value = static_cast<double>(traced.materialized_peers);
  m["runtime.query_rounds"].value = Median(traced.query_rounds);
  m["engine.plans_compiled"].value = static_cast<double>(traced.plans_compiled);
  m["engine.plan_cache_hit_frac"].value =
      Ratio(traced.plan_cache_hits, traced.plan_cache_hits + traced.plans_compiled);
  m["engine.demand_frac"].value =
      Ratio(traced.lookups_on_demand, traced.lookup_us.size());
  m["engine.lookup_tuples_examined"].value = Median(traced.lookup_tuples_examined);
  m["parser.rule_install_us"].value = Median(tracer.Durations("parser.rule_install"));
  m["acl.approve_us"].value = Median(tracer.Durations("acl.approve"));
  m["acl.pending_peak"].value = static_cast<double>(traced.pending_peak);
  m["net.resyncs"].value = static_cast<double>(traced.resyncs);
  m["wrappers.posts_per_update"].value = Ratio(traced.fb_posts, traced.updates);
  m["wrappers.emails_per_update"].value = Ratio(traced.emails, traced.updates);
  m["storage.tuples"].value = static_cast<double>(traced.storage_tuples);
  m["query.lookup_p50_us"].value = Quantile(traced.lookup_us, 0.5);
  m["query.lookup_p99_us"].value = Quantile(traced.lookup_us, 0.99);
  m["query.full_p50_ms"].value = Quantile(traced.query_ms, 0.5);
  m["query.full_p99_ms"].value = Quantile(traced.query_ms, 0.99);
  m["trace.ops_per_s"].value = Median(traced.episode_ops_per_s);
  m["trace.untraced_ops_per_s"].value = Median(untraced.episode_ops_per_s);
  m["trace.overhead_frac"].value =
      1.0 - Ratio(m["trace.ops_per_s"].value, m["trace.untraced_ops_per_s"].value);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  bases: lookups=%zu (demand path %llu), queries=%zu, "
                "plans_compiled=%llu plan_cache_hits=%llu\n",
                traced.lookup_us.size(),
                static_cast<unsigned long long>(traced.lookups_on_demand),
                traced.query_ms.size(),
                static_cast<unsigned long long>(traced.plans_compiled),
                static_cast<unsigned long long>(traced.plan_cache_hits));
  report.layer_summary += buf;
  FinishTrace(tracer, args, &report);
  return report;
}

}  // namespace perfbench
