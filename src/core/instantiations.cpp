// Explicit instantiations of the core templates for every semiring the
// library ships. Keeps template errors local to the library build and
// gives downstream TUs smaller compile times.
#include "core/builder_compact.hpp"
#include "core/builder_doubling.hpp"
#include "core/builder_recursive.hpp"
#include "core/engine.hpp"

namespace sepsp {

template SeparatorShortestPaths<TropicalD>
build_augmentation_recursive<TropicalD>(const Digraph&, const SeparatorTree&,
                                        ClosureKind);
template SeparatorShortestPaths<TropicalI>
build_augmentation_recursive<TropicalI>(const Digraph&, const SeparatorTree&,
                                        ClosureKind);
template SeparatorShortestPaths<BooleanSR>
build_augmentation_recursive<BooleanSR>(const Digraph&, const SeparatorTree&,
                                        ClosureKind);
template SeparatorShortestPaths<BottleneckSR>
build_augmentation_recursive<BottleneckSR>(const Digraph&, const SeparatorTree&,
                                           ClosureKind);

template SeparatorShortestPaths<TropicalD>
build_augmentation_doubling<TropicalD>(const Digraph&, const SeparatorTree&,
                                       const DoublingOptions&);
template SeparatorShortestPaths<TropicalI>
build_augmentation_doubling<TropicalI>(const Digraph&, const SeparatorTree&,
                                       const DoublingOptions&);
template SeparatorShortestPaths<BooleanSR>
build_augmentation_doubling<BooleanSR>(const Digraph&, const SeparatorTree&,
                                       const DoublingOptions&);
template SeparatorShortestPaths<BottleneckSR>
build_augmentation_doubling<BottleneckSR>(const Digraph&, const SeparatorTree&,
                                          const DoublingOptions&);

template SeparatorShortestPaths<TropicalD>
build_augmentation_compact<TropicalD>(const Digraph&, const SeparatorTree&,
                                      const DoublingOptions&);
template SeparatorShortestPaths<TropicalI>
build_augmentation_compact<TropicalI>(const Digraph&, const SeparatorTree&,
                                      const DoublingOptions&);
template SeparatorShortestPaths<BooleanSR>
build_augmentation_compact<BooleanSR>(const Digraph&, const SeparatorTree&,
                                      const DoublingOptions&);
template SeparatorShortestPaths<BottleneckSR>
build_augmentation_compact<BottleneckSR>(const Digraph&, const SeparatorTree&,
                                         const DoublingOptions&);

// One walk per semiring: the engine takes its lane width at run time.
template class SeparatorShortestPaths<TropicalD>;
template class SeparatorShortestPaths<TropicalI>;
template class SeparatorShortestPaths<BooleanSR>;
template class SeparatorShortestPaths<BottleneckSR>;

}  // namespace sepsp
