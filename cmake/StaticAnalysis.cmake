# Static-analysis targets. All of them are driver scripts under tools/ so the
# exact file lists and suppressions live in one reviewable place and CI runs
# byte-identical commands to a developer's `cmake --build build --target ...`.
#
#   tidy          clang-tidy (.clang-tidy profile) over src/, examples/, bench/
#                 via compile_commands.json. Skips (successfully, with a
#                 notice) when clang-tidy is not installed.
#   lint          tools/primacy_lint — project-specific invariants clang-tidy
#                 cannot know (byte_io discipline, writer/reader symmetry,
#                 pool exception containment).
#   check-format  clang-format --dry-run over the tree (check-only). Skips
#                 when clang-format is not installed.
#   static-analysis  umbrella target running all of the above.
#
# `lint` is also registered as a ctest (PrimacyLint) so the invariant gate
# runs in every tier-1 `ctest` invocation, sanitizer jobs included, and so
# is tools/check_workflows.py (CiWorkflowsParse: every CI workflow parses).

find_package(Python3 COMPONENTS Interpreter QUIET)
find_program(PRIMACY_CLANG_TIDY
             NAMES clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17
                   clang-tidy-16 clang-tidy-15)
find_program(PRIMACY_CLANG_FORMAT
             NAMES clang-format clang-format-19 clang-format-18
                   clang-format-17 clang-format-16 clang-format-15)

if(NOT Python3_Interpreter_FOUND)
  message(STATUS "primacy: python3 not found — tidy/lint/check-format targets disabled")
  return()
endif()

if(PRIMACY_CLANG_TIDY)
  add_custom_target(tidy
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/run_tidy.py
            --clang-tidy ${PRIMACY_CLANG_TIDY} -p ${CMAKE_BINARY_DIR}
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
    COMMENT "clang-tidy over src/ examples/ bench/"
    USES_TERMINAL)
else()
  add_custom_target(tidy
    COMMAND ${CMAKE_COMMAND} -E echo
            "clang-tidy not found -- install clang-tidy to enable this gate"
    COMMENT "clang-tidy unavailable"
    VERBATIM)
endif()

add_custom_target(lint
  COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/primacy_lint src
  WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
  COMMENT "primacy_lint invariant checks"
  USES_TERMINAL)

if(PRIMACY_CLANG_FORMAT)
  add_custom_target(check-format
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/check_format.py
            --clang-format ${PRIMACY_CLANG_FORMAT}
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
    COMMENT "clang-format check (no files rewritten)"
    USES_TERMINAL)
else()
  add_custom_target(check-format
    COMMAND ${CMAKE_COMMAND} -E echo
            "clang-format not found -- skipping format check"
    COMMENT "clang-format unavailable"
    VERBATIM)
endif()

add_custom_target(static-analysis DEPENDS tidy lint check-format)

if(PRIMACY_BUILD_TESTS)
  add_test(NAME PrimacyLint
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/primacy_lint src
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR})
  # Each rule must fire on its embedded violation fixture — guards against a
  # refactor silently defanging the linter itself.
  add_test(NAME PrimacyLintSelfTest
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/primacy_lint
            --self-test
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR})
  # Every CI workflow must parse: one that does not runs no job, and
  # nothing else in a local build notices. Skipped without PyYAML.
  add_test(NAME CiWorkflowsParse
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/check_workflows.py
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR})
  set_tests_properties(CiWorkflowsParse PROPERTIES SKIP_RETURN_CODE 77)
  # The /metrics validator CI uses against a live scrape must itself keep
  # accepting the exporter's shapes and rejecting malformed expositions.
  add_test(NAME PromtextSelfTest
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/check_promtext.py
            --self-test
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR})
endif()
