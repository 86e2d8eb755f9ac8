#include "fold.hh"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "ir/eval.hh"
#include "sim/logging.hh"

namespace salam::opt
{

using namespace salam::ir;

namespace
{

/** Count uses of every instruction-defined value in @p fn. */
std::unordered_map<const Value *, std::size_t>
countUses(const Function &fn)
{
    std::unordered_map<const Value *, std::size_t> uses;
    for (std::size_t b = 0; b < fn.numBlocks(); ++b) {
        const BasicBlock *block = fn.block(b);
        for (const auto &inst : *block) {
            for (std::size_t o = 0; o < inst->numOperands(); ++o)
                ++uses[inst->operand(o)];
        }
    }
    return uses;
}

void
replaceAllUses(Function &fn, Value *from, Value *to)
{
    for (std::size_t b = 0; b < fn.numBlocks(); ++b) {
        BasicBlock *block = fn.block(b);
        for (std::size_t i = 0; i < block->size(); ++i)
            block->instruction(i)->replaceUsesOf(from, to);
    }
}

/** Drop @p pred from the incoming lists of phis in @p block. */
void
removePhiIncoming(BasicBlock *block, BasicBlock *pred)
{
    for (PhiInst *phi : block->phis()) {
        for (std::size_t i = 0; i < phi->numIncoming(); ++i) {
            if (phi->incomingBlock(i) == pred) {
                // Rebuild the phi without this entry.
                std::vector<std::pair<Value *, BasicBlock *>> keep;
                for (std::size_t k = 0; k < phi->numIncoming(); ++k) {
                    if (k != i) {
                        keep.emplace_back(phi->incomingValue(k),
                                          phi->incomingBlock(k));
                    }
                }
                // PhiInst has no removal API; recreate in place by
                // clearing via set operations is not possible, so we
                // mutate through a fresh phi swap below.
                // Instead, overwrite entries then shrink:
                // (simplest correct approach: build new phi)
                auto replacement = std::make_unique<PhiInst>(
                    phi->type(), phi->name());
                for (auto &[v, bb] : keep)
                    replacement->addIncoming(v, bb);
                // Find phi position.
                for (std::size_t p = 0; p < block->size(); ++p) {
                    if (block->instruction(p) == phi) {
                        Instruction *fresh = block->insert(
                            p, std::move(replacement));
                        // Redirect uses to the fresh phi, then drop
                        // the old one (now at p + 1).
                        Function *fn = block->parent();
                        replaceAllUses(*fn, phi, fresh);
                        block->erase(p + 1);
                        break;
                    }
                }
                // Restart scanning this block's phis.
                removePhiIncoming(block, pred);
                return;
            }
        }
    }
}

bool
hasSideEffects(const Instruction &inst)
{
    switch (inst.opcode()) {
      case Opcode::Store:
      case Opcode::Br:
      case Opcode::Ret:
        return true;
      case Opcode::Load:
        // Accelerator-local loads are idempotent; a dead load is a
        // dead memory port access the synthesizer would also drop.
        return false;
      default:
        return false;
    }
}

} // namespace

bool
foldConstants(Function &fn)
{
    bool any = false;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b = 0; b < fn.numBlocks(); ++b) {
            BasicBlock *block = fn.block(b);
            for (std::size_t i = 0; i < block->size(); ++i) {
                Instruction *inst = block->instruction(i);
                if (!inst->isComputeOp() ||
                    inst->opcode() == Opcode::Call) {
                    continue;
                }
                bool all_const = inst->numOperands() > 0;
                for (std::size_t o = 0; o < inst->numOperands(); ++o) {
                    if (!inst->operand(o)->isConstant())
                        all_const = false;
                }
                if (!all_const)
                    continue;

                std::vector<RuntimeValue> ops;
                for (std::size_t o = 0; o < inst->numOperands(); ++o)
                    ops.push_back(evalConstant(inst->operand(o)));
                RuntimeValue rv = evalCompute(*inst, ops);

                Module *mod = fn.parent();
                SALAM_ASSERT(mod != nullptr);
                Value *replacement;
                if (inst->type()->isFloatingPoint()) {
                    replacement = mod->getConstantFP(
                        inst->type(), rv.asFP(inst->type()));
                } else {
                    replacement = mod->getConstantInt(
                        inst->type(), rv.bits);
                }
                replaceAllUses(fn, inst, replacement);
                block->erase(i);
                --i;
                changed = true;
                any = true;
            }
        }

        // Fold constant conditional branches.
        for (std::size_t b = 0; b < fn.numBlocks(); ++b) {
            BasicBlock *block = fn.block(b);
            auto *br = dynamic_cast<BranchInst *>(block->terminator());
            if (br == nullptr || !br->isConditional() ||
                !br->condition()->isConstant()) {
                continue;
            }
            bool taken = evalConstant(br->condition()).asBool();
            BasicBlock *kept = taken ? br->ifTrue() : br->ifFalse();
            BasicBlock *dropped = taken ? br->ifFalse() : br->ifTrue();
            block->erase(block->size() - 1);
            block->append(std::make_unique<BranchInst>(
                fn.type(), kept));
            if (dropped != kept)
                removePhiIncoming(dropped, block);
            changed = true;
            any = true;
        }
    }
    return any;
}

bool
eliminateDeadCode(Function &fn)
{
    bool any = false;
    bool changed = true;
    while (changed) {
        changed = false;
        auto uses = countUses(fn);
        for (std::size_t b = 0; b < fn.numBlocks(); ++b) {
            BasicBlock *block = fn.block(b);
            for (std::size_t i = block->size(); i-- > 0;) {
                Instruction *inst = block->instruction(i);
                if (hasSideEffects(*inst))
                    continue;
                if (uses[inst] > 0)
                    continue;
                block->erase(i);
                changed = true;
                any = true;
            }
        }
    }
    return any;
}

bool
simplifyCfg(Function &fn)
{
    bool any = false;
    bool changed = true;
    while (changed) {
        changed = false;

        // 1. Remove unreachable blocks.
        std::set<const BasicBlock *> reachable;
        std::vector<BasicBlock *> worklist{fn.entry()};
        while (!worklist.empty()) {
            BasicBlock *block = worklist.back();
            worklist.pop_back();
            if (!reachable.insert(block).second)
                continue;
            for (auto *succ : block->successors())
                worklist.push_back(succ);
        }
        for (std::size_t b = fn.numBlocks(); b-- > 0;) {
            BasicBlock *block = fn.block(b);
            if (reachable.count(block))
                continue;
            for (auto *succ : block->successors())
                removePhiIncoming(succ, block);
            fn.eraseBlock(b);
            changed = true;
            any = true;
        }
        if (changed)
            continue;

        // 2. Fold single-incoming phis.
        for (std::size_t b = 0; b < fn.numBlocks(); ++b) {
            BasicBlock *block = fn.block(b);
            for (PhiInst *phi : block->phis()) {
                if (phi->numIncoming() == 1) {
                    replaceAllUses(fn, phi, phi->incomingValue(0));
                    for (std::size_t i = 0; i < block->size(); ++i) {
                        if (block->instruction(i) == phi) {
                            block->erase(i);
                            break;
                        }
                    }
                    changed = true;
                    any = true;
                    break;
                }
            }
            if (changed)
                break;
        }
        if (changed)
            continue;

        // 3. Merge straight-line chains: b -> s with single pred and
        //    no phis in s.
        for (std::size_t b = 0; b < fn.numBlocks(); ++b) {
            BasicBlock *block = fn.block(b);
            auto *br = dynamic_cast<BranchInst *>(block->terminator());
            if (br == nullptr || br->isConditional())
                continue;
            BasicBlock *succ = br->ifTrue();
            if (succ == block || succ == fn.entry())
                continue;
            if (fn.predecessors(succ).size() != 1)
                continue;
            if (!succ->phis().empty())
                continue;

            // Drop block's terminator, splice succ's instructions.
            block->erase(block->size() - 1);
            auto moved = succ->takeAll();
            for (auto &inst : moved)
                block->append(std::move(inst));

            // Phis in succ's successors must re-point at block.
            for (auto *after : block->successors()) {
                for (PhiInst *phi : after->phis()) {
                    for (std::size_t i = 0; i < phi->numIncoming();
                         ++i) {
                        if (phi->incomingBlock(i) == succ)
                            phi->setIncomingBlock(i, block);
                    }
                }
            }

            for (std::size_t k = 0; k < fn.numBlocks(); ++k) {
                if (fn.block(k) == succ) {
                    fn.eraseBlock(k);
                    break;
                }
            }
            changed = true;
            any = true;
            break;
        }
    }
    return any;
}

bool
reassociateConstants(Function &fn)
{
    auto const_of = [](Value *v) -> const ConstantInt * {
        return dynamic_cast<const ConstantInt *>(v);
    };

    Module *mod = fn.parent();
    bool any = false;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b = 0; b < fn.numBlocks(); ++b) {
            BasicBlock *block = fn.block(b);
            for (std::size_t i = 0; i < block->size(); ++i) {
                Instruction *inst = block->instruction(i);
                if (inst->opcode() != Opcode::Add)
                    continue;
                auto *outer = static_cast<BinaryOp *>(inst);
                const ConstantInt *c2 = const_of(outer->rhs());
                Value *base = outer->lhs();
                if (c2 == nullptr) {
                    c2 = const_of(outer->lhs());
                    base = outer->rhs();
                }
                if (c2 == nullptr)
                    continue;
                auto *inner = dynamic_cast<BinaryOp *>(base);
                if (inner == nullptr ||
                    inner->opcode() != Opcode::Add) {
                    continue;
                }
                const ConstantInt *c1 = const_of(inner->rhs());
                Value *root = inner->lhs();
                if (c1 == nullptr) {
                    c1 = const_of(inner->lhs());
                    root = inner->rhs();
                }
                if (c1 == nullptr)
                    continue;
                ConstantInt *sum = mod->getConstantInt(
                    inst->type(), c1->zext() + c2->zext());
                outer->setOperand(0, root);
                outer->setOperand(1, sum);
                changed = true;
                any = true;
            }
        }
    }
    return any;
}

namespace
{

bool
isBalanceable(Opcode op)
{
    switch (op) {
      case Opcode::Add:
      case Opcode::Mul:
      case Opcode::FAdd:
      case Opcode::FMul:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
        return true;
      default:
        return false;
    }
}

} // namespace

bool
balanceReductions(Function &fn)
{
    bool any = false;
    // Equal to countUses(fn) throughout: a rewrite adds its new
    // nodes' operands and moves the tail's uses to the new root.
    auto uses = countUses(fn);
    for (std::size_t b = 0; b < fn.numBlocks(); ++b) {
        BasicBlock *block = fn.block(b);

        // Nodes that are an input of a same-op node in this block,
        // kept up to date the same way.
        std::unordered_set<const Value *> feeds_same_op;
        auto note_inputs = [&feeds_same_op](const Instruction *user) {
            for (std::size_t o = 0; o < 2; ++o) {
                auto *in =
                    dynamic_cast<const Instruction *>(user->operand(o));
                if (in != nullptr && in->opcode() == user->opcode())
                    feeds_same_op.insert(in);
            }
        };
        for (std::size_t j = 0; j < block->size(); ++j) {
            Instruction *user = block->instruction(j);
            if (isBalanceable(user->opcode()))
                note_inputs(user);
        }

        bool changed = true;
        while (changed) {
            changed = false;
            for (std::size_t i = 0; i < block->size(); ++i) {
                Instruction *tail = block->instruction(i);
                if (!isBalanceable(tail->opcode()))
                    continue;
                if (uses[tail] == 0)
                    continue; // dead chain awaiting DCE
                Opcode op = tail->opcode();

                // A chain tail is a node whose result is not itself
                // a single-use input of another same-op node here.
                if (uses[tail] == 1 && feeds_same_op.count(tail) != 0)
                    continue;

                // Gather leaves through single-use same-op links,
                // tracking the expression depth.
                std::vector<Value *> leaves;
                std::size_t links = 0;
                std::size_t max_depth = 0;
                std::function<void(Value *, bool, std::size_t)>
                    gather = [&](Value *v, bool root,
                                 std::size_t depth) {
                        auto *inst = dynamic_cast<Instruction *>(v);
                        if (inst != nullptr &&
                            inst->opcode() == op &&
                            inst->parent() == block &&
                            (root || uses[inst] == 1)) {
                            ++links;
                            gather(inst->operand(0), false,
                                   depth + 1);
                            gather(inst->operand(1), false,
                                   depth + 1);
                        } else {
                            leaves.push_back(v);
                            max_depth = std::max(max_depth, depth);
                        }
                    };
                gather(tail, true, 0);
                if (links < 4 || leaves.size() < 5)
                    continue;
                // Skip expressions that are already (near) balanced.
                std::size_t balanced_depth = 1;
                while ((1ull << balanced_depth) < leaves.size())
                    ++balanced_depth;
                if (max_depth <= balanced_depth + 1)
                    continue;

                // Already shallow? A pure chain has links ==
                // leaves-1 and depth == links; a balanced tree has
                // depth ~log2. Rebuild unconditionally; DCE removes
                // the old chain. Build pairwise levels just before
                // the tail (all leaves dominate that point).
                std::size_t pos = 0;
                while (block->instruction(pos) != tail)
                    ++pos;

                unsigned serial = 0;
                std::vector<Value *> level = std::move(leaves);
                while (level.size() > 1) {
                    std::vector<Value *> next;
                    std::size_t k = 0;
                    for (; k + 1 < level.size(); k += 2) {
                        auto node = std::make_unique<BinaryOp>(
                            op, level[k], level[k + 1],
                            tail->name() + ".bal" +
                                std::to_string(serial++));
                        Instruction *placed =
                            block->insert(pos++, std::move(node));
                        ++uses[level[k]];
                        ++uses[level[k + 1]];
                        note_inputs(placed);
                        next.push_back(placed);
                    }
                    if (k < level.size())
                        next.push_back(level[k]);
                    level = std::move(next);
                }

                replaceAllUses(fn, tail, level.front());
                std::size_t moved = uses[tail];
                uses[tail] = 0;
                uses[level.front()] += moved;
                if (feeds_same_op.erase(tail) != 0)
                    feeds_same_op.insert(level.front());
                changed = true;
                any = true;
                break; // rescan the block with the rewrite in place
            }
        }
    }
    if (any)
        eliminateDeadCode(fn);
    return any;
}

void
cleanup(Function &fn)

{
    bool changed = true;
    while (changed) {
        changed = false;
        changed |= foldConstants(fn);
        changed |= reassociateConstants(fn);
        changed |= eliminateDeadCode(fn);
        changed |= simplifyCfg(fn);
    }
}

} // namespace salam::opt
