# Included by the repository's own project() call (run.py configures the
# root CMakeLists.txt with -DCMAKE_PROJECT_INCLUDE pointing here). The
# benchmark's build file is included only once the root file has been
# processed, so the benchmark compiles with the repository's own build type,
# flags and options (COGENT_CHAOS, assertions) and links its libraries
# unchanged. Deferred arguments are expanded at call time, hence the
# variable.
get_filename_component(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
cmake_language(DEFER CALL include "${PERFBENCH_DIR}/CMakeLists.txt")
