#include "storedcomm/provider.h"

#include <gtest/gtest.h>

namespace lexfor::storedcomm {
namespace {

using legal::GrantedAuthority;
using legal::LegalProcess;
using legal::ProcessKind;
using legal::ProviderClass;

GrantedAuthority authority(ProcessKind kind) {
  LegalProcess p;
  p.id = ProcessId{9};
  p.kind = kind;
  p.issued_at = SimTime::zero();
  return GrantedAuthority{p};
}

struct MailFixture {
  Provider gmail{"gmail", ProviderPublicity::kPublic};
  Provider university{"cs.charlie.edu", ProviderPublicity::kNonPublic};
  AccountId bob = gmail.create_account(
      "bob@gmail.com", {"Bob B.", "1 Main St", "visa-1234"});
  AccountId alice = university.create_account(
      "alice@cs.charlie.edu", {"Alice A.", "2 Campus Way", "payroll"});
};

TEST(ProviderTest, DeliveryCreatesAwaitingMessage) {
  MailFixture f;
  const auto id = f.gmail
                      .deliver("bob@gmail.com", "alice@cs.charlie.edu",
                               "hello", to_bytes("hi bob"), SimTime::zero())
                      .value();
  const auto* m = f.gmail.find_message(id);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->state, MessageState::kAwaitingRetrieval);
  EXPECT_EQ(f.gmail.mailbox(f.bob).size(), 1u);
}

TEST(ProviderTest, DeliveryToUnknownAddressFails) {
  MailFixture f;
  EXPECT_EQ(f.gmail
                .deliver("nobody@gmail.com", "x", "s", {}, SimTime::zero())
                .status()
                .code(),
            StatusCode::kNotFound);
}

// The paper's Alice/Bob classification walk-through, mechanized.
TEST(ScaLifecycleTest, UnretrievedMailIsEcsEverywhere) {
  MailFixture f;
  const auto at_gmail = f.gmail
                            .deliver("bob@gmail.com", "alice", "s",
                                     to_bytes("b"), SimTime::zero())
                            .value();
  const auto at_univ = f.university
                           .deliver("alice@cs.charlie.edu", "bob", "re",
                                    to_bytes("a"), SimTime::zero())
                           .value();
  EXPECT_EQ(f.gmail.classify(at_gmail), ProviderClass::kEcs);
  EXPECT_EQ(f.university.classify(at_univ), ProviderClass::kEcs);
}

TEST(ScaLifecycleTest, OpenedMailAtPublicProviderBecomesRcs) {
  MailFixture f;
  const auto id = f.gmail
                      .deliver("bob@gmail.com", "alice", "s", to_bytes("b"),
                               SimTime::zero())
                      .value();
  ASSERT_TRUE(f.gmail.open_message(id, SimTime::from_sec(60)).ok());
  EXPECT_EQ(f.gmail.classify(id), ProviderClass::kRcs);
}

TEST(ScaLifecycleTest, OpenedMailAtNonPublicProviderIsNeither) {
  MailFixture f;
  const auto id = f.university
                      .deliver("alice@cs.charlie.edu", "bob", "re",
                               to_bytes("a"), SimTime::zero())
                      .value();
  ASSERT_TRUE(f.university.open_message(id, SimTime::from_sec(60)).ok());
  EXPECT_EQ(f.university.classify(id), ProviderClass::kNonPublic);
  // And the required process falls to the Fourth Amendment: warrant, with
  // the SCA no longer in the statute list.
  const auto det =
      f.university.required_process(DisclosureKind::kContent, id);
  EXPECT_EQ(det.required_process, ProcessKind::kSearchWarrant);
  const auto& statutes = det.governing_statutes;
  EXPECT_EQ(std::count(statutes.begin(), statutes.end(),
                       legal::Statute::kStoredCommunicationsAct),
            0);
}

TEST(ScaLifecycleTest, ContentAlwaysRequiresWarrant) {
  MailFixture f;
  const auto id = f.gmail
                      .deliver("bob@gmail.com", "alice", "s", to_bytes("b"),
                               SimTime::zero())
                      .value();
  const auto det = f.gmail.required_process(DisclosureKind::kContent, id);
  EXPECT_EQ(det.required_process, ProcessKind::kSearchWarrant);
}

TEST(ScaLadderTest, SubscriberRecordsCompelledBySubpoena) {
  MailFixture f;
  const auto r = f.gmail.compelled_disclosure(
      DisclosureKind::kBasicSubscriber, f.bob,
      authority(ProcessKind::kSubpoena), SimTime::zero());
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r.value().subscriber.has_value());
  EXPECT_EQ(r.value().subscriber->name, "Bob B.");
}

TEST(ScaLadderTest, SubscriberRecordsRefusedWithoutProcess) {
  MailFixture f;
  const auto r = f.gmail.compelled_disclosure(
      DisclosureKind::kBasicSubscriber, f.bob, GrantedAuthority{},
      SimTime::zero());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
}

TEST(ScaLadderTest, TransactionalRecordsNeedCourtOrder) {
  MailFixture f;
  f.gmail.log_transaction(f.bob, "login from 10.0.0.1");
  const auto denied = f.gmail.compelled_disclosure(
      DisclosureKind::kTransactionalRecords, f.bob,
      authority(ProcessKind::kSubpoena), SimTime::zero());
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);

  const auto granted = f.gmail.compelled_disclosure(
      DisclosureKind::kTransactionalRecords, f.bob,
      authority(ProcessKind::kCourtOrder), SimTime::zero());
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(granted.value().transaction_log.size(), 1u);
}

TEST(ScaLadderTest, ContentNeedsWarrantNotCourtOrder) {
  MailFixture f;
  (void)f.gmail
      .deliver("bob@gmail.com", "alice", "s", to_bytes("body"), SimTime::zero())
      .value();
  const auto denied = f.gmail.compelled_disclosure(
      DisclosureKind::kContent, f.bob, authority(ProcessKind::kCourtOrder),
      SimTime::zero());
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);

  const auto granted = f.gmail.compelled_disclosure(
      DisclosureKind::kContent, f.bob, authority(ProcessKind::kSearchWarrant),
      SimTime::zero());
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(granted.value().messages.size(), 1u);
  EXPECT_EQ(granted.value().messages[0].body, to_bytes("body"));
}

TEST(VoluntaryDisclosureTest, PublicProviderMayNotVolunteerToGovernment) {
  MailFixture f;
  const auto r = f.gmail.voluntary_disclosure_to_government(
      DisclosureKind::kContent, f.bob, /*emergency=*/false,
      /*user_consent=*/false);
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
}

TEST(VoluntaryDisclosureTest, EmergencyUnlocksVoluntaryDisclosure) {
  MailFixture f;
  EXPECT_TRUE(f.gmail
                  .voluntary_disclosure_to_government(
                      DisclosureKind::kContent, f.bob, /*emergency=*/true,
                      /*user_consent=*/false)
                  .ok());
}

TEST(VoluntaryDisclosureTest, ConsentUnlocksVoluntaryDisclosure) {
  MailFixture f;
  EXPECT_TRUE(f.gmail
                  .voluntary_disclosure_to_government(
                      DisclosureKind::kBasicSubscriber, f.bob,
                      /*emergency=*/false, /*user_consent=*/true)
                  .ok());
}

TEST(VoluntaryDisclosureTest, NonPublicProviderDisclosesFreely) {
  MailFixture f;
  EXPECT_TRUE(f.university
                  .voluntary_disclosure_to_government(
                      DisclosureKind::kContent, f.alice, /*emergency=*/false,
                      /*user_consent=*/false)
                  .ok());
}

TEST(ProviderTest, DeletedMessagesLeaveTheMailbox) {
  MailFixture f;
  const auto id = f.gmail
                      .deliver("bob@gmail.com", "a", "s", to_bytes("x"),
                               SimTime::zero())
                      .value();
  ASSERT_TRUE(f.gmail.delete_message(id).ok());
  EXPECT_TRUE(f.gmail.mailbox(f.bob).empty());
  EXPECT_EQ(f.gmail.open_message(id, SimTime::zero()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ProviderTest, StrongerProcessSatisfiesWeakerRequirement) {
  MailFixture f;
  EXPECT_TRUE(f.gmail
                  .compelled_disclosure(DisclosureKind::kBasicSubscriber,
                                        f.bob,
                                        authority(ProcessKind::kSearchWarrant),
                                        SimTime::zero())
                  .ok());
}

}  // namespace
}  // namespace lexfor::storedcomm

// --- § 2703(f) preservation requests ----------------------------------

namespace lexfor::storedcomm {
namespace {

TEST(PreservationTest, RequestNeedsKnownAccount) {
  MailFixture f;
  EXPECT_EQ(f.gmail.preservation_request(AccountId{99}, SimTime::zero()).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(f.gmail.preservation_request(f.bob, SimTime::zero()).ok());
}

TEST(PreservationTest, HoldExpiresAfterDuration) {
  MailFixture f;
  ASSERT_TRUE(f.gmail
                  .preservation_request(f.bob, SimTime::zero(),
                                        SimDuration::from_sec(100.0))
                  .ok());
  EXPECT_TRUE(f.gmail.preservation_active(f.bob, SimTime::from_sec(50)));
  EXPECT_FALSE(f.gmail.preservation_active(f.bob, SimTime::from_sec(101)));
}

TEST(PreservationTest, DeletionUnderHoldRetainsForDisclosure) {
  MailFixture f;
  const auto msg = f.gmail
                       .deliver("bob@gmail.com", "a", "s", to_bytes("keep me"),
                                SimTime::zero())
                       .value();
  ASSERT_TRUE(f.gmail.preservation_request(f.bob, SimTime::from_sec(10)).ok());
  ASSERT_TRUE(f.gmail.delete_message(msg, SimTime::from_sec(20)).ok());

  // Gone from the user's mailbox...
  EXPECT_TRUE(f.gmail.mailbox(f.bob).empty());
  // ...but produced under a warrant.
  const auto r = f.gmail.compelled_disclosure(
      DisclosureKind::kContent, f.bob, authority(ProcessKind::kSearchWarrant),
      SimTime::from_sec(30));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().messages.size(), 1u);
  EXPECT_TRUE(r.value().messages[0].retained_under_hold);
}

TEST(PreservationTest, DeletionWithoutHoldIsGoneForGood) {
  MailFixture f;
  const auto msg = f.gmail
                       .deliver("bob@gmail.com", "a", "s", to_bytes("lost"),
                                SimTime::zero())
                       .value();
  ASSERT_TRUE(f.gmail.delete_message(msg, SimTime::from_sec(20)).ok());
  const auto r = f.gmail.compelled_disclosure(
      DisclosureKind::kContent, f.bob, authority(ProcessKind::kSearchWarrant),
      SimTime::from_sec(30));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().messages.empty());
}

TEST(PreservationTest, DeletionAfterHoldExpiryIsNotRetained) {
  MailFixture f;
  const auto msg = f.gmail
                       .deliver("bob@gmail.com", "a", "s", to_bytes("late"),
                                SimTime::zero())
                       .value();
  ASSERT_TRUE(f.gmail
                  .preservation_request(f.bob, SimTime::zero(),
                                        SimDuration::from_sec(100.0))
                  .ok());
  ASSERT_TRUE(f.gmail.delete_message(msg, SimTime::from_sec(500)).ok());
  const auto r = f.gmail.compelled_disclosure(
      DisclosureKind::kContent, f.bob, authority(ProcessKind::kSearchWarrant),
      SimTime::from_sec(600));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().messages.empty());
}

}  // namespace
}  // namespace lexfor::storedcomm
