/**
 * @file
 * Unit tests for the kernel model: task lifecycle, fault classification,
 * migration-flag semantics (the Section IV-D ordering).
 */

#include <gtest/gtest.h>

#include "os/kernel.hh"

namespace flick
{
namespace
{

TEST(Kernel, CreateAndFind)
{
    Kernel k;
    Task &a = k.createTask(0x1000);
    Task &b = k.createTask(0x2000);
    EXPECT_NE(a.pid, b.pid);
    EXPECT_EQ(k.findTask(a.pid), &a);
    EXPECT_EQ(k.findTask(b.pid), &b);
    EXPECT_EQ(k.findTask(99999), nullptr);
    EXPECT_EQ(a.cr3, 0x1000u);
    EXPECT_EQ(a.state, TaskState::created);
    EXPECT_EQ(a.nxpStackTop[0], 0u); // NULL until first migration
}

TEST(Kernel, ClassifyHostFaults)
{
    Kernel k;
    EXPECT_EQ(k.classifyFetchFault(Fault::nxFetch, IsaKind::hx64),
              FaultAction::migrateToNxp);
    // Anything else on the host is a real fault.
    EXPECT_EQ(k.classifyFetchFault(Fault::notPresent, IsaKind::hx64),
              FaultAction::deliverSignal);
    EXPECT_EQ(k.classifyFetchFault(Fault::nonNxFetch, IsaKind::hx64),
              FaultAction::deliverSignal);
    EXPECT_EQ(k.stats().get("nx_faults"), 1u);
}

TEST(Kernel, ClassifyNxpFaults)
{
    Kernel k;
    // Both triggers of Section IV-B2.
    EXPECT_EQ(k.classifyFetchFault(Fault::nonNxFetch, IsaKind::rv64),
              FaultAction::migrateToHost);
    EXPECT_EQ(k.classifyFetchFault(Fault::misalignedFetch, IsaKind::rv64),
              FaultAction::migrateToHost);
    EXPECT_EQ(k.classifyFetchFault(Fault::nxFetch, IsaKind::rv64),
              FaultAction::deliverSignal);
    EXPECT_EQ(k.stats().get("nxp_fetch_faults"), 2u);
}

TEST(Kernel, SuspendWakeResumeCycle)
{
    Kernel k;
    Task &t = k.createTask(0x1000);
    t.state = TaskState::running;

    CoreContext ctx = {1, 2, 3};
    k.suspendForMigration(t, ctx);
    EXPECT_EQ(t.state, TaskState::onNxp);
    EXPECT_TRUE(t.migrationFlag);

    // The scheduler consumes the DMA trigger exactly once.
    EXPECT_TRUE(k.takeMigrationTrigger(t));
    EXPECT_FALSE(k.takeMigrationTrigger(t));

    k.wake(t);
    EXPECT_EQ(t.state, TaskState::runnable);
    auto restored = k.resume(t);
    EXPECT_EQ(t.state, TaskState::running);
    EXPECT_EQ(restored, ctx);
}

TEST(Kernel, StatsCount)
{
    Kernel k;
    Task &t = k.createTask(0);
    t.state = TaskState::running;
    k.suspendForMigration(t, {});
    k.takeMigrationTrigger(t);
    k.wake(t);
    k.resume(t);
    EXPECT_EQ(k.stats().get("tasks_created"), 1u);
    EXPECT_EQ(k.stats().get("suspensions"), 1u);
    EXPECT_EQ(k.stats().get("dma_triggers"), 1u);
    EXPECT_EQ(k.stats().get("wakeups"), 1u);
    EXPECT_EQ(k.stats().get("resumes"), 1u);
}

TEST(KernelDeath, StateMachineMisusePanics)
{
    Kernel k;
    Task &t = k.createTask(0);
    EXPECT_DEATH(k.wake(t), "wake of task");
    EXPECT_DEATH(k.resume(t), "resume of task");
    t.state = TaskState::onNxp;
    EXPECT_DEATH(k.suspendForMigration(t, {}), "suspendForMigration");
}

} // namespace
} // namespace flick
