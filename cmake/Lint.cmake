# Lint targets, all runnable locally via `cmake --build build --target
# <name>` and wired into the CI lint job:
#
#   lint          repo-specific invariants (tools/lint/check_invariants.py,
#                 after its --self-test of the rules' negative cases)
#   format-check  clang-format --dry-run --Werror (needs clang-format)
#   tidy          clang-tidy over src/ via compile_commands.json
#                 (needs clang-tidy)
#
# format-check and tidy degrade to a clear "tool not found" failure
# message instead of silently passing when the binary is missing, so a
# misconfigured CI runner cannot greenwash the check.

find_package(Python3 COMPONENTS Interpreter QUIET)
if(Python3_Interpreter_FOUND)
  set(_lint_python ${Python3_EXECUTABLE})
else()
  set(_lint_python python3)
endif()

add_custom_target(lint
  COMMAND ${_lint_python} ${CMAKE_SOURCE_DIR}/tools/lint/check_invariants.py
          --self-test
  COMMAND ${_lint_python} ${CMAKE_SOURCE_DIR}/tools/lint/check_invariants.py
          --root ${CMAKE_SOURCE_DIR} --compiler ${CMAKE_CXX_COMPILER}
  WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
  COMMENT "check_invariants.py: repo-specific concurrency/style rules"
  VERBATIM)

find_program(RLMUL_CLANG_FORMAT NAMES clang-format clang-format-18
             clang-format-17 clang-format-16 clang-format-15)
if(RLMUL_CLANG_FORMAT)
  add_custom_target(format-check
    COMMAND ${CMAKE_COMMAND} -E env CLANG_FORMAT=${RLMUL_CLANG_FORMAT}
            bash ${CMAKE_SOURCE_DIR}/tools/lint/check_format.sh
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
    COMMENT "clang-format --dry-run --Werror over src/ tests/ bench/ examples/"
    VERBATIM)
else()
  add_custom_target(format-check
    COMMAND ${CMAKE_COMMAND} -E echo
            "format-check: clang-format not found on this machine"
    COMMAND ${CMAKE_COMMAND} -E false
    COMMENT "clang-format missing"
    VERBATIM)
endif()

find_program(RLMUL_CLANG_TIDY NAMES clang-tidy clang-tidy-18 clang-tidy-17
             clang-tidy-16 clang-tidy-15)
if(RLMUL_CLANG_TIDY)
  add_custom_target(tidy
    COMMAND ${_lint_python} ${CMAKE_SOURCE_DIR}/tools/lint/run_clang_tidy.py
            --clang-tidy ${RLMUL_CLANG_TIDY}
            --build-dir ${CMAKE_BINARY_DIR}
            --root ${CMAKE_SOURCE_DIR}
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
    COMMENT "clang-tidy (.clang-tidy profile) over src/"
    VERBATIM)
else()
  add_custom_target(tidy
    COMMAND ${CMAKE_COMMAND} -E echo
            "tidy: clang-tidy not found on this machine"
    COMMAND ${CMAKE_COMMAND} -E false
    COMMENT "clang-tidy missing"
    VERBATIM)
endif()
