# Runs the command after `--` and passes only if it exits with status 2 (a
# usage error) without an uncaught exception's "terminate called" line.
#   cmake -P expect_usage_error.cmake -- <program> [args...]
set(command "")
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(seen_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(seen_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_usage_error: no command after --")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "expected exit 2, got: ${code}")
endif()
if("${out}${err}" MATCHES "terminate called")
  message(FATAL_ERROR "the command aborted on an uncaught exception")
endif()
