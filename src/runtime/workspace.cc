/**
 * @file
 * Workspace storage and the checkout path.
 */
#include "runtime/workspace.h"

#include <mutex>
#include <new>

namespace ditto {

namespace {

constexpr std::align_val_t kArenaAlign{64};

/** Idle workspaces kept process-wide beyond the per-thread slots. */
constexpr size_t kMaxIdle = 4;

thread_local std::unique_ptr<Workspace> tls_workspace;

std::mutex g_idle_mutex;
std::vector<std::unique_ptr<Workspace>> g_idle;

/** Exactly one slot per shape, each resized in place (Tensor::resize
 *  keeps its capacity). */
template <typename T>
void
fitSlots(std::vector<Tensor<T>> *slots, const std::vector<Shape> &shapes)
{
    slots->resize(shapes.size());
    for (size_t k = 0; k < shapes.size(); ++k)
        (*slots)[k].resize(shapes[k]);
}

} // namespace

void
Workspace::ArenaFree::operator()(std::byte *p) const
{
    ::operator delete[](p, kArenaAlign);
}

std::byte *
Workspace::arena(int64_t bytes)
{
    if (bytes > arenaBytes_) {
        // Planned buffers never survive a pass, so growth drops the old
        // block instead of copying it.
        arena_.reset();
        arena_.reset(static_cast<std::byte *>(::operator new[](
            static_cast<size_t>(bytes), kArenaAlign)));
        arenaBytes_ = bytes;
    }
    return arena_.get();
}

void
Workspace::fitRolloutState(const std::vector<Shape> &in_shapes,
                           const std::vector<Shape> &out_shapes)
{
    CompiledModel::DittoState &st = rolloutState_;
    fitSlots(&st.prevIn, in_shapes);
    fitSlots(&st.nextIn, in_shapes);
    fitSlots(&st.prevOut, out_shapes);
}

WorkspaceLease::WorkspaceLease()
{
    if (tls_workspace) {
        ws_ = std::move(tls_workspace);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(g_idle_mutex);
        if (!g_idle.empty()) {
            ws_ = std::move(g_idle.back());
            g_idle.pop_back();
            return;
        }
    }
    ws_ = std::make_unique<Workspace>();
}

WorkspaceLease::~WorkspaceLease()
{
    if (!tls_workspace) {
        tls_workspace = std::move(ws_);
        return;
    }
    std::lock_guard<std::mutex> lock(g_idle_mutex);
    if (g_idle.size() < kMaxIdle)
        g_idle.push_back(std::move(ws_));
}

} // namespace ditto
